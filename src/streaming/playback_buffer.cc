#include "streaming/playback_buffer.h"

#include "common/error.h"

namespace vsplice::streaming {

PlaybackBuffer::PlaybackBuffer(const core::SegmentIndex& index)
    : index_{index}, flags_(index.count(), false) {}

void PlaybackBuffer::mark_downloaded(std::size_t segment) {
  require(segment < flags_.size(), "segment index out of range");
  if (flags_[segment]) return;
  flags_[segment] = true;
  ++downloaded_;
  while (frontier_ < flags_.size() && flags_[frontier_]) ++frontier_;
}

bool PlaybackBuffer::is_downloaded(std::size_t segment) const {
  require(segment < flags_.size(), "segment index out of range");
  return flags_[segment];
}

Duration PlaybackBuffer::frontier_time() const {
  if (frontier_ == flags_.size()) return index_.total_duration();
  return index_.at(frontier_).start;
}

Duration PlaybackBuffer::buffered_ahead(Duration playhead) const {
  const Duration frontier = frontier_time();
  if (playhead >= frontier) return Duration::zero();
  return frontier - playhead;
}

}  // namespace vsplice::streaming
