#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/error.h"
#include "common/log.h"
#include "obs/sampler.h"

namespace vsplice::obs {

// ================================================================ helpers

namespace {

/// %.6g with NaN/inf serialized as null: non-finite values have no JSON
/// literal, and null keeps the snapshot valid for every parser.
std::string fmt_g(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_fixed(double v, int decimals) {
  if (!std::isfinite(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

/// Compact human number for tiles and axis labels.
std::string fmt_compact(double v) {
  if (!std::isfinite(v)) return "-";
  const double a = std::fabs(v);
  char buf[64];
  if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
  } else if (a >= 1e4) {
    std::snprintf(buf, sizeof buf, "%.0fk", v / 1e3);
  } else if (a >= 100.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  }
  return buf;
}

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string end_time_label(TimePoint end) {
  return end.is_infinite() ? std::string{"(unresolved)"}
                           : fmt_fixed(end.as_seconds(), 1) + " s";
}

/// A render-side point after thinning a series to a drawable count.
struct Point {
  double t = 0.0;  // seconds
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Merges adjacent buckets so at most `max_points` survive; the store
/// already bounds memory, this bounds SVG size.
std::vector<Point> thin(const std::vector<Sample>& samples,
                        std::size_t max_points) {
  std::vector<Point> out;
  if (samples.empty() || max_points == 0) return out;
  const std::size_t stride = (samples.size() + max_points - 1) / max_points;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const std::size_t end = std::min(i + stride, samples.size());
    Point p;
    p.t = samples[i].time.as_seconds();
    p.min = samples[i].min;
    p.max = samples[i].max;
    double weighted = 0.0;
    double total = 0.0;
    for (std::size_t j = i; j < end; ++j) {
      const double w = static_cast<double>(samples[j].count);
      weighted += samples[j].mean * w;
      total += w;
      p.min = std::min(p.min, samples[j].min);
      p.max = std::max(p.max, samples[j].max);
    }
    p.mean = total > 0.0 ? weighted / total : samples[i].mean;
    out.push_back(p);
  }
  return out;
}

/// Latest sampled instant across the whole store, in seconds.
double store_extent_seconds(const TimeSeriesStore& store) {
  double t1 = 0.0;
  for (const auto& [name, series] : store.all()) {
    if (!series.empty()) {
      t1 = std::max(t1, series.samples().back().time.as_seconds());
    }
  }
  return t1;
}

// =============================================================== charts

constexpr double kChartW = 640.0;
constexpr double kPadL = 46.0;
constexpr double kPadR = 10.0;
constexpr double kPadT = 10.0;
constexpr double kPadB = 20.0;

struct ChartSpec {
  const Series* series = nullptr;
  std::string title;
  const char* color = "--series-1";
  bool step = false;
  double scale = 1.0;
  double t1 = 1.0;  // x-domain end, seconds
  /// Stall intervals to shade, in seconds (end clamped to t1).
  std::vector<std::pair<double, double>> shade;
  double height = 140.0;
};

void append_num(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  out += buf;
}

/// One single-series chart (line or step) with optional stall shading.
std::string render_chart(const ChartSpec& spec) {
  const double plot_w = kChartW - kPadL - kPadR;
  const double plot_h = spec.height - kPadT - kPadB;
  const double t1 = std::max(spec.t1, 1e-9);

  std::vector<Point> points;
  if (spec.series != nullptr) points = thin(spec.series->samples(), 256);
  double ymax_data = 0.0;
  for (const Point& p : points) {
    ymax_data = std::max(ymax_data, p.mean * spec.scale);
  }
  const double ymax = std::max(ymax_data, 1e-9) * 1.08;

  const auto x = [&](double t) {
    return kPadL + (std::clamp(t, 0.0, t1) / t1) * plot_w;
  };
  const auto y = [&](double v) {
    return kPadT + plot_h * (1.0 - std::clamp(v / ymax, 0.0, 1.0));
  };

  std::string svg;
  svg += "<figure class=\"chart\"><figcaption>" +
         html_escape(spec.title) + "</figcaption>";
  svg += "<svg viewBox=\"0 0 " + fmt_fixed(kChartW, 0) + " " +
         fmt_fixed(spec.height, 0) +
         "\" role=\"img\" aria-label=\"" + html_escape(spec.title) + "\">";

  // Stall shading behind everything else.
  for (const auto& [s0, s1] : spec.shade) {
    const double x0 = x(s0);
    const double x1 = std::max(x(std::min(s1, t1)), x0 + 1.0);
    svg += "<rect class=\"stall-shade\" x=\"";
    append_num(svg, x0);
    svg += "\" y=\"";
    append_num(svg, kPadT);
    svg += "\" width=\"";
    append_num(svg, x1 - x0);
    svg += "\" height=\"";
    append_num(svg, plot_h);
    svg += "\"><title>stall " + fmt_fixed(s0, 1) + "-" + fmt_fixed(s1, 1) +
           " s</title></rect>";
  }

  // Hairline at the data max, baseline at zero.
  svg += "<line class=\"grid\" x1=\"";
  append_num(svg, kPadL);
  svg += "\" y1=\"";
  append_num(svg, y(ymax_data));
  svg += "\" x2=\"";
  append_num(svg, kChartW - kPadR);
  svg += "\" y2=\"";
  append_num(svg, y(ymax_data));
  svg += "\"/>";
  svg += "<line class=\"baseline\" x1=\"";
  append_num(svg, kPadL);
  svg += "\" y1=\"";
  append_num(svg, y(0.0));
  svg += "\" x2=\"";
  append_num(svg, kChartW - kPadR);
  svg += "\" y2=\"";
  append_num(svg, y(0.0));
  svg += "\"/>";

  // The mark: 2px line (or step path) + an end marker with surface ring.
  if (!points.empty()) {
    if (spec.step) {
      std::string d = "M";
      append_num(d, x(points.front().t));
      d += " ";
      append_num(d, y(points.front().mean * spec.scale));
      for (std::size_t i = 1; i < points.size(); ++i) {
        d += " H";
        append_num(d, x(points[i].t));
        d += " V";
        append_num(d, y(points[i].mean * spec.scale));
      }
      d += " H";
      append_num(d, x(t1));
      svg += "<path class=\"series\" style=\"stroke:var(" +
             std::string{spec.color} + ")\" d=\"" + d + "\"/>";
    } else {
      std::string pts;
      for (const Point& p : points) {
        append_num(pts, x(p.t));
        pts += ",";
        append_num(pts, y(p.mean * spec.scale));
        pts += " ";
      }
      svg += "<polyline class=\"series\" style=\"stroke:var(" +
             std::string{spec.color} + ")\" points=\"" + pts + "\"/>";
    }
    const Point& last = points.back();
    svg += "<circle class=\"endmark\" style=\"fill:var(" +
           std::string{spec.color} + ")\" cx=\"";
    append_num(svg, x(last.t));
    svg += "\" cy=\"";
    append_num(svg, y(last.mean * spec.scale));
    svg += "\" r=\"3.5\"><title>" +
           html_escape(fmt_compact(last.mean * spec.scale)) + " at " +
           fmt_fixed(last.t, 1) + " s</title></circle>";
  }

  // Axis text: y extremes on the left, three time ticks below.
  svg += "<text class=\"axis\" x=\"";
  append_num(svg, kPadL - 5.0);
  svg += "\" y=\"";
  append_num(svg, y(ymax_data) + 3.0);
  svg += "\" text-anchor=\"end\">" + fmt_compact(ymax_data) + "</text>";
  svg += "<text class=\"axis\" x=\"";
  append_num(svg, kPadL - 5.0);
  svg += "\" y=\"";
  append_num(svg, y(0.0) + 3.0);
  svg += "\" text-anchor=\"end\">0</text>";
  for (const double tick : {0.0, t1 / 2.0, t1}) {
    svg += "<text class=\"axis\" x=\"";
    append_num(svg, x(tick));
    svg += "\" y=\"";
    append_num(svg, spec.height - 5.0);
    svg += "\" text-anchor=\"middle\">" + fmt_compact(tick) + "s</text>";
  }

  svg += "</svg></figure>";
  return svg;
}

/// Availability heat strip: x = time, y = segment, fill = replica count
/// on the sequential blue ramp.
std::string render_heat_strip(const TimeSeriesStore& store, double t1) {
  std::map<std::size_t, const Series*> rows;
  for (const auto& [name, series] : store.all()) {
    std::size_t segment = 0;
    if (SwarmSampler::parse_segment_series(name, segment)) {
      rows.emplace(segment, &series);
    }
  }
  if (rows.empty()) return {};

  // All avail series are appended together each tick, so they share one
  // bucket layout; thin the first row once and reuse its time grid.
  std::vector<const Series*> ordered;
  ordered.reserve(rows.size());
  std::vector<std::size_t> segment_of;
  for (const auto& [segment, series] : rows) {
    ordered.push_back(series);
    segment_of.push_back(segment);
  }

  constexpr std::size_t kMaxCols = 96;
  constexpr std::size_t kMaxRows = 64;
  std::vector<std::vector<Point>> thinned;
  thinned.reserve(ordered.size());
  for (const Series* series : ordered) {
    thinned.push_back(thin(series->samples(), kMaxCols));
  }
  const std::size_t cols = thinned.front().size();
  if (cols == 0) return {};

  const std::size_t row_stride =
      (ordered.size() + kMaxRows - 1) / kMaxRows;
  const std::size_t n_rows = (ordered.size() + row_stride - 1) / row_stride;

  double vmax = 1.0;
  for (const auto& row : thinned) {
    for (const Point& p : row) vmax = std::max(vmax, p.mean);
  }

  const double cell_h = std::clamp(256.0 / static_cast<double>(n_rows),
                                   4.0, 10.0);
  const double plot_h = cell_h * static_cast<double>(n_rows);
  const double height = kPadT + plot_h + kPadB;
  const double plot_w = kChartW - kPadL - kPadR;
  const double t_end = std::max(t1, 1e-9);
  const auto x = [&](double t) {
    return kPadL + (std::clamp(t, 0.0, t_end) / t_end) * plot_w;
  };

  std::string svg;
  svg += "<figure class=\"chart\"><figcaption>Segment availability "
         "(replicas per segment over time)</figcaption>";
  svg += "<svg viewBox=\"0 0 " + fmt_fixed(kChartW, 0) + " " +
         fmt_fixed(height, 0) +
         "\" role=\"img\" aria-label=\"segment availability\">";

  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t first = r * row_stride;
    const std::size_t last =
        std::min(first + row_stride, ordered.size()) - 1;
    const double row_y = kPadT + static_cast<double>(r) * cell_h;
    for (std::size_t c = 0; c < cols; ++c) {
      double total = 0.0;
      for (std::size_t i = first; i <= last; ++i) {
        total += c < thinned[i].size() ? thinned[i][c].mean : 0.0;
      }
      const double value = total / static_cast<double>(last - first + 1);
      const double next_t =
          c + 1 < cols ? thinned.front()[c + 1].t : t_end;
      const double x0 = x(thinned.front()[c].t);
      const double x1 = std::max(x(next_t), x0 + 0.5);
      int step = 0;
      if (value > 0.0) {
        step = 1 + static_cast<int>(std::floor((value / vmax) * 6.999));
        step = std::clamp(step, 1, 7);
      }
      svg += "<rect class=\"h" + std::to_string(step) + "\" x=\"";
      append_num(svg, x0);
      svg += "\" y=\"";
      append_num(svg, row_y);
      svg += "\" width=\"";
      append_num(svg, x1 - x0);
      svg += "\" height=\"";
      append_num(svg, cell_h);
      svg += "\"><title>seg " + std::to_string(segment_of[first]);
      if (last != first) svg += "-" + std::to_string(segment_of[last]);
      svg += " at " + fmt_fixed(thinned.front()[c].t, 0) + " s: " +
             fmt_fixed(value, value < 10 ? 1 : 0) + " replicas</title></rect>";
    }
    if (r % 8 == 0) {
      svg += "<text class=\"axis\" x=\"";
      append_num(svg, kPadL - 5.0);
      svg += "\" y=\"";
      append_num(svg, row_y + cell_h);
      svg += "\" text-anchor=\"end\">seg " +
             std::to_string(segment_of[first]) + "</text>";
    }
  }
  for (const double tick : {0.0, t_end / 2.0, t_end}) {
    svg += "<text class=\"axis\" x=\"";
    append_num(svg, x(tick));
    svg += "\" y=\"";
    append_num(svg, height - 5.0);
    svg += "\" text-anchor=\"middle\">" + fmt_compact(tick) + "s</text>";
  }
  svg += "</svg>";

  // Discrete ramp legend: 0 then the seven steps up to vmax.
  svg += "<div class=\"ramp\"><span>0</span>";
  for (int step = 0; step <= 7; ++step) {
    svg += "<i class=\"h" + std::to_string(step) + "\"></i>";
  }
  svg += "<span>" + fmt_compact(vmax) + " replicas</span></div>";
  svg += "</figure>";
  return svg;
}

// ================================================================== CSS

// Palette: validated reference palette (categorical slots 1-2, the
// sequential blue ramp, fixed status colors), light values with dark
// overrides under both the OS media query and an explicit data-theme
// stamp.
constexpr const char* kCss = R"css(
body{margin:0;font-family:system-ui,-apple-system,"Segoe UI",sans-serif}
.viz-root{
  color-scheme:light;
  --surface-1:#fcfcfb;--page:#f9f9f7;
  --ink-1:#0b0b0b;--ink-2:#52514e;--muted:#898781;
  --gridline:#e1e0d9;--baseline:#c3c2b7;
  --border:rgba(11,11,11,0.10);
  --series-1:#2a78d6;--series-2:#eb6834;
  --good:#0ca30c;--warning:#fab219;--serious:#ec835a;--critical:#d03b3b;
  --seq-1:#cde2fb;--seq-2:#9ec5f4;--seq-3:#6da7ec;--seq-4:#3987e5;
  --seq-5:#256abf;--seq-6:#184f95;--seq-7:#0d366b;
  background:var(--page);color:var(--ink-1);
  min-height:100vh;padding:24px;box-sizing:border-box;
}
@media (prefers-color-scheme:dark){
  :root:where(:not([data-theme="light"])) .viz-root{
    color-scheme:dark;
    --surface-1:#1a1a19;--page:#0d0d0d;
    --ink-1:#ffffff;--ink-2:#c3c2b7;
    --gridline:#2c2c2a;--baseline:#383835;
    --border:rgba(255,255,255,0.10);
    --series-1:#3987e5;--series-2:#d95926;
  }
}
:root[data-theme="dark"] .viz-root{
  color-scheme:dark;
  --surface-1:#1a1a19;--page:#0d0d0d;
  --ink-1:#ffffff;--ink-2:#c3c2b7;
  --gridline:#2c2c2a;--baseline:#383835;
  --border:rgba(255,255,255,0.10);
  --series-1:#3987e5;--series-2:#d95926;
}
.viz-root h1{font-size:20px;margin:0 0 4px}
.viz-root h2{font-size:15px;margin:28px 0 10px;color:var(--ink-1)}
.viz-root .sub{color:var(--ink-2);font-size:13px;margin:0 0 12px}
.params{display:flex;flex-wrap:wrap;gap:6px;margin:10px 0 0}
.params span{background:var(--surface-1);border:1px solid var(--border);
  border-radius:10px;padding:2px 9px;font-size:12px;color:var(--ink-2)}
.tiles{display:grid;grid-template-columns:repeat(auto-fit,minmax(140px,1fr));
  gap:10px;margin:18px 0}
.tile{background:var(--surface-1);border:1px solid var(--border);
  border-radius:8px;padding:10px 12px}
.tile .label{font-size:12px;color:var(--ink-2)}
.tile .value{font-size:26px;font-weight:600;margin-top:2px}
.grid{display:grid;grid-template-columns:repeat(auto-fit,minmax(330px,1fr));
  gap:12px}
.card{background:var(--surface-1);border:1px solid var(--border);
  border-radius:8px;padding:10px 12px}
.card h3{font-size:13px;margin:0 0 2px}
.card .sub{margin:0 0 6px}
.chart{margin:0}
.chart figcaption{font-size:12px;color:var(--ink-2);margin:6px 0 2px}
.chart svg{width:100%;height:auto;display:block}
.chart .series{fill:none;stroke-width:2;stroke-linejoin:round;
  stroke-linecap:round}
.chart .grid{stroke:var(--gridline);stroke-width:1}
.chart .baseline{stroke:var(--baseline);stroke-width:1}
.chart .axis{fill:var(--muted);font-size:10px;
  font-variant-numeric:tabular-nums}
.chart .stall-shade{fill:var(--critical);opacity:0.12}
.chart .endmark{stroke:var(--surface-1);stroke-width:2}
.h0{fill:var(--gridline)}.h1{fill:var(--seq-1)}.h2{fill:var(--seq-2)}
.h3{fill:var(--seq-3)}.h4{fill:var(--seq-4)}.h5{fill:var(--seq-5)}
.h6{fill:var(--seq-6)}.h7{fill:var(--seq-7)}
.ramp{display:flex;align-items:center;gap:3px;margin-top:6px;
  font-size:11px;color:var(--ink-2)}
.ramp i{width:18px;height:10px;display:inline-block;border-radius:2px}
table{border-collapse:collapse;width:100%;background:var(--surface-1);
  border:1px solid var(--border);border-radius:8px;font-size:13px}
th,td{text-align:left;padding:6px 10px;border-top:1px solid var(--gridline);
  vertical-align:top}
th{color:var(--ink-2);font-weight:600;border-top:none;font-size:12px}
td.num{font-variant-numeric:tabular-nums}
.dot{display:inline-block;width:8px;height:8px;border-radius:50%;
  margin-right:6px}
.dot-critical{background:var(--critical)}
.dot-warning{background:var(--warning)}
.dot-serious{background:var(--serious)}
.dot-good{background:var(--good)}
details{margin:14px 0}
details pre{background:var(--surface-1);border:1px solid var(--border);
  border-radius:8px;padding:12px;overflow-x:auto;font-size:12px}
footer{margin-top:28px;color:var(--muted);font-size:12px}
)css";

const char* anomaly_dot_class(const std::string& kind) {
  if (kind == "buffer_drain") return "dot-critical";
  if (kind == "low_availability") return "dot-serious";
  if (kind == "event_queue_garbage") return "dot-serious";
  return "dot-warning";  // pool_collapse, seeder_saturation
}

/// Human-readable byte count for tiles and memory tables.
std::string fmt_bytes(std::uint64_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (bytes >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.1f MB", b / 1e6);
  } else if (bytes >= 10'000) {
    std::snprintf(buf, sizeof buf, "%.1f kB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

// ============================================================ build/write

ReportData build_report(RunInfo info, const TimeSeriesStore& store,
                        const std::vector<Span>& spans) {
  ReportData data;
  data.info = std::move(info);
  data.series = &store;
  data.anomalies = scan_anomalies(store, spans);
  data.stalls = explain_stalls(spans, data.anomalies);
  data.waterfall = segment_waterfall(spans);
  if (!spans.empty()) data.timeline = summarize_timeline(spans);
  return data;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    log_message(LogLevel::Error, "obs",
                "cannot open '" + path + "' for writing");
    return false;
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out.good()) {
    log_message(LogLevel::Error, "obs", "failed writing '" + path + "'");
    return false;
  }
  return true;
}

bool probe_writable_path(const std::string& path) {
  if (path.empty()) return false;
  std::FILE* existing = std::fopen(path.c_str(), "rb");
  const bool existed = existing != nullptr;
  if (existing != nullptr) std::fclose(existing);
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) return false;
  std::fclose(probe);
  if (!existed) std::remove(path.c_str());
  return true;
}

// ================================================================== JSON

std::string render_json_snapshot(const ReportData& data) {
  require(data.series != nullptr, "snapshot needs a series store");
  std::string out;
  out.reserve(1 << 16);

  out += "{\n\"run\":{\"title\":" + json_escape(data.info.title) +
         ",\"params\":{";
  for (std::size_t i = 0; i < data.info.params.size(); ++i) {
    if (i > 0) out += ',';
    out += json_escape(data.info.params[i].first) + ":" +
           json_escape(data.info.params[i].second);
  }
  out += "}},\n\"series\":{";
  bool first_series = true;
  for (const auto& [name, series] : data.series->all()) {
    if (!first_series) out += ',';
    first_series = false;
    out += "\n" + json_escape(name) + ":{\"t_us\":[";
    const std::vector<Sample>& samples = series.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(samples[i].time.count_micros());
    }
    out += "],\"count\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(samples[i].count);
    }
    out += "],\"mean\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ',';
      out += fmt_g(samples[i].mean);
    }
    out += "],\"min\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ',';
      out += fmt_g(samples[i].min);
    }
    out += "],\"max\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ',';
      out += fmt_g(samples[i].max);
    }
    out += "]}";
  }

  out += "},\n\"stalls\":[";
  for (std::size_t i = 0; i < data.stalls.size(); ++i) {
    const StallExplanation& stall = data.stalls[i];
    if (i > 0) out += ',';
    out += "\n{\"node\":" + std::to_string(stall.node) +
           ",\"start_us\":" + std::to_string(stall.start.count_micros()) +
           ",\"end_us\":" +
           (stall.end.is_infinite()
                ? std::string{"-1"}
                : std::to_string(stall.end.count_micros())) +
           ",\"duration_us\":" +
           std::to_string(stall.duration.count_micros()) +
           ",\"segment\":" + std::to_string(stall.segment) +
           ",\"category\":" + json_escape(stall.category) +
           ",\"cause\":" + json_escape(stall.cause) +
           ",\"critical_phase\":" + json_escape(stall.critical_phase) +
           ",\"anomalies\":[";
    for (std::size_t j = 0; j < stall.anomalies.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(stall.anomalies[j]);
    }
    out += "]}";
  }

  out += "],\n\"anomalies\":[";
  for (std::size_t i = 0; i < data.anomalies.size(); ++i) {
    const Anomaly& a = data.anomalies[i];
    if (i > 0) out += ',';
    out += "\n{\"kind\":" + json_escape(a.kind) +
           ",\"node\":" + std::to_string(a.node) +
           ",\"segment\":" + std::to_string(a.segment) +
           ",\"onset_us\":" + std::to_string(a.onset.count_micros()) +
           ",\"end_us\":" +
           (a.end.is_infinite() ? std::string{"-1"}
                                : std::to_string(a.end.count_micros())) +
           ",\"detail\":" + json_escape(a.detail) + "}";
  }

  out += "],\n\"waterfall\":[";
  for (std::size_t i = 0; i < data.waterfall.size(); ++i) {
    const PhaseStats& phase = data.waterfall[i];
    if (i > 0) out += ',';
    out += "\n{\"phase\":" + json_escape(phase.phase) +
           ",\"count\":" + std::to_string(phase.count) +
           ",\"p50_s\":" + fmt_g(phase.p50_s) +
           ",\"p95_s\":" + fmt_g(phase.p95_s) +
           ",\"p99_s\":" + fmt_g(phase.p99_s) +
           ",\"total_s\":" + fmt_g(phase.total_s) + "}";
  }

  out += "],\n\"profile\":[";
  for (std::size_t i = 0; i < data.profile.entries.size(); ++i) {
    const ProfileEntry& entry = data.profile.entries[i];
    if (i > 0) out += ',';
    out += "\n{\"path\":" + json_escape(entry.path) +
           ",\"name\":" + json_escape(entry.name) +
           ",\"depth\":" + std::to_string(entry.depth) +
           ",\"count\":" + std::to_string(entry.count) +
           ",\"total_ns\":" + std::to_string(entry.total_ns) +
           ",\"self_ns\":" + std::to_string(entry.self_ns) +
           ",\"max_ns\":" + std::to_string(entry.max_ns) + "}";
  }

  out += "],\n\"memory\":{";
  if (!data.memory.empty()) {
    out += "\"subsystems\":{";
    for (std::size_t i = 0; i < data.memory.subsystems.size(); ++i) {
      if (i > 0) out += ',';
      out += json_escape(data.memory.subsystems[i].first) + ":" +
             std::to_string(data.memory.subsystems[i].second);
    }
    out += "},\"total_bytes\":" + std::to_string(data.memory.total()) +
           ",\"peak_bytes\":" + std::to_string(data.memory_peak_bytes) +
           ",\"bytes_per_peer\":" + fmt_g(data.memory_bytes_per_peer);
  }
  out += "}\n}\n";
  return out;
}

// ================================================================== HTML

std::string render_html_report(const ReportData& data) {
  require(data.series != nullptr, "report needs a series store");
  const TimeSeriesStore& store = *data.series;
  const double t1 = std::max(store_extent_seconds(store), 1e-9);

  // Viewer nodes, numerically ordered, with their stall intervals.
  std::map<std::int64_t, std::vector<std::pair<double, double>>> viewers;
  for (const auto& [name, series] : store.all()) {
    std::int64_t node = -1;
    std::string what;
    if (SwarmSampler::parse_peer_series(name, node, what) &&
        what == "buffer_s") {
      viewers[node];
    }
  }
  for (const StallExplanation& stall : data.stalls) {
    const double s0 = stall.start.as_seconds();
    const double s1 =
        stall.end.is_infinite() ? t1 : stall.end.as_seconds();
    viewers[stall.node].emplace_back(s0, s1);
  }

  double total_stall_s = 0.0;
  for (const StallExplanation& stall : data.stalls) {
    total_stall_s += stall.duration.as_seconds();
  }

  std::string html;
  html.reserve(1 << 18);
  html += "<!doctype html>\n<html lang=\"en\">\n<head>\n";
  html += "<meta charset=\"utf-8\">\n";
  html += "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n";
  html += "<title>" + html_escape(data.info.title) +
          " - vsplice run report</title>\n<style>" + std::string{kCss} +
          "</style>\n</head>\n<body>\n<div class=\"viz-root\">\n";

  html += "<header><h1>" + html_escape(data.info.title) + "</h1>";
  html += "<p class=\"sub\">vsplice swarm-health run report</p>";
  html += "<div class=\"params\">";
  for (const auto& [key, value] : data.info.params) {
    html += "<span>" + html_escape(key) + " = " + html_escape(value) +
            "</span>";
  }
  html += "</div></header>\n";

  // Stat tiles.
  html += "<div class=\"tiles\">";
  const auto tile = [&](const std::string& label, const std::string& value) {
    html += "<div class=\"tile\"><div class=\"label\">" +
            html_escape(label) + "</div><div class=\"value\">" +
            html_escape(value) + "</div></div>";
  };
  tile("Viewers", std::to_string(viewers.size()));
  tile("Stalls", std::to_string(data.stalls.size()));
  tile("Stall time", fmt_fixed(total_stall_s, 1) + " s");
  tile("Anomalies", std::to_string(data.anomalies.size()));
  tile("Run length", fmt_compact(t1) + " s");
  html += "</div>\n";

  // Swarm overview.
  html += "<h2>Swarm</h2>\n<div class=\"grid\">";
  const auto overview_chart = [&](const char* series_name,
                                  const std::string& title, double scale,
                                  bool step) {
    ChartSpec spec;
    spec.series = store.find(series_name);
    spec.title = title;
    spec.scale = scale;
    spec.step = step;
    spec.t1 = t1;
    if (spec.series != nullptr) {
      html += "<div class=\"card\">" + render_chart(spec) + "</div>";
    }
  };
  overview_chart("swarm.goodput_Bps", "Aggregate goodput (kB/s)", 1e-3,
                 false);
  overview_chart("swarm.seeder_upload_rate_Bps", "Seeder upload (kB/s)",
                 1e-3, false);
  overview_chart("swarm.min_replicas", "Rarest-segment replicas", 1.0,
                 true);
  overview_chart("swarm.online_peers", "Online peers", 1.0, true);
  html += "</div>\n";

  // Availability heat strip.
  const std::string heat = render_heat_strip(store, t1);
  if (!heat.empty()) {
    html += "<h2>Availability</h2>\n<div class=\"card\">" + heat +
            "</div>\n";
  }

  // Per-subsystem memory rollup (see obs/resource.h).
  if (!data.memory.empty()) {
    const std::uint64_t total = data.memory.total();
    html += "<h2>Memory</h2>\n<p class=\"sub\">Capacity-based bytes "
            "held per subsystem at end of run";
    if (data.memory_peak_bytes > 0) {
      html += "; sampled peak " + fmt_bytes(data.memory_peak_bytes);
    }
    if (data.memory_bytes_per_peer > 0.0) {
      html += "; " +
              fmt_bytes(static_cast<std::uint64_t>(
                  data.memory_bytes_per_peer)) +
              " per peer";
    }
    html += "</p>\n<table><tr><th>Subsystem</th><th>Bytes</th>"
            "<th>Share</th></tr>";
    for (const auto& [subsystem, bytes] : data.memory.subsystems) {
      const double share =
          total > 0 ? 100.0 * static_cast<double>(bytes) /
                          static_cast<double>(total)
                    : 0.0;
      html += "<tr><td>" + html_escape(subsystem) +
              "</td><td class=\"num\">" + fmt_bytes(bytes) +
              "</td><td class=\"num\">" + fmt_fixed(share, 1) +
              "%</td></tr>";
    }
    html += "<tr><td>total</td><td class=\"num\">" + fmt_bytes(total) +
            "</td><td class=\"num\">100.0%</td></tr></table>\n";
  }

  // Event-loop health: queue pressure, garbage share, scoped
  // reallocation and lazy settlement (see DESIGN.md §16). Only rendered
  // when the run sampled the sim.* series.
  if (store.find("sim.queue_depth") != nullptr) {
    html += "<h2>Event loop</h2>\n<p class=\"sub\">";
    const Series* compactions = store.find("sim.heap_compactions");
    const Series* touched = store.find("net.realloc_touched_ratio");
    const Series* settled = store.find("net.settled_flows_per_event");
    html += "Heap compactions: " +
            (compactions != nullptr && !compactions->empty()
                 ? fmt_compact(compactions->last_value())
                 : std::string{"0"});
    if (touched != nullptr && !touched->empty()) {
      html += "; reallocation touched-flows ratio " +
              fmt_fixed(touched->last_value(), 3) +
              " (1.000 = full rescans)";
    }
    if (settled != nullptr && !settled->empty()) {
      html += "; " + fmt_fixed(settled->last_value(), 2) +
              " flows settled per fired event";
    }
    html += ".</p>\n<div class=\"grid\">";
    overview_chart("sim.queue_depth", "Live pending events", 1.0, true);
    overview_chart("sim.events_per_sec", "Events fired per second", 1.0,
                   false);
    overview_chart("sim.garbage_ratio", "Heap garbage ratio", 1.0, false);
    overview_chart("net.realloc_touched_ratio",
                   "Realloc touched-flows ratio", 1.0, false);
    html += "</div>\n";
  }

  // Per-viewer cards: buffer timeline with stall shading + pool steps.
  html += "<h2>Viewers</h2>\n<div class=\"grid\">";
  for (const auto& [node, stall_spans] : viewers) {
    std::size_t stall_count = 0;
    double stall_s = 0.0;
    for (const StallExplanation& stall : data.stalls) {
      if (stall.node == node) {
        ++stall_count;
        stall_s += stall.duration.as_seconds();
      }
    }
    html += "<div class=\"card\"><h3>viewer " + std::to_string(node) +
            "</h3><p class=\"sub\">" + std::to_string(stall_count) +
            " stall" + (stall_count == 1 ? "" : "s") + ", " +
            fmt_fixed(stall_s, 1) + " s stalled</p>";
    ChartSpec buffer;
    buffer.series =
        store.find(SwarmSampler::peer_series(node, "buffer_s"));
    buffer.title = "Buffer (s)";
    buffer.color = "--series-1";
    buffer.t1 = t1;
    buffer.shade = stall_spans;
    html += render_chart(buffer);
    ChartSpec pool;
    pool.series = store.find(SwarmSampler::peer_series(node, "pool"));
    pool.title = "Pool size k";
    pool.color = "--series-2";
    pool.step = true;
    pool.t1 = t1;
    pool.height = 110.0;
    pool.shade = stall_spans;
    html += render_chart(pool);
    html += "</div>";
  }
  html += "</div>\n";

  // Anomaly list.
  html += "<h2>Anomalies</h2>\n";
  if (data.anomalies.empty()) {
    html += "<p class=\"sub\">No anomalies flagged.</p>\n";
  } else {
    html += "<table><tr><th>#</th><th>Kind</th><th>Node</th>"
            "<th>Segment</th><th>Onset</th><th>End</th>"
            "<th>Detail</th></tr>";
    for (std::size_t i = 0; i < data.anomalies.size(); ++i) {
      const Anomaly& a = data.anomalies[i];
      html += "<tr id=\"anomaly-" + std::to_string(i) +
              "\"><td class=\"num\">" + std::to_string(i) +
              "</td><td><span class=\"dot " + anomaly_dot_class(a.kind) +
              "\"></span>" + html_escape(a.kind) + "</td><td class=\"num\">" +
              (a.node < 0 ? std::string{"-"} : std::to_string(a.node)) +
              "</td><td class=\"num\">" +
              (a.segment < 0 ? std::string{"-"}
                             : std::to_string(a.segment)) +
              "</td><td class=\"num\">" +
              fmt_fixed(a.onset.as_seconds(), 1) +
              " s</td><td class=\"num\">" + end_time_label(a.end) +
              "</td><td>" + html_escape(a.detail) + "</td></tr>";
    }
    html += "</table>\n";
  }

  // Per-phase delivery waterfall (only present on span-traced runs).
  if (!data.waterfall.empty()) {
    html += "<h2>Segment waterfall</h2>\n<p class=\"sub\">Per-phase "
            "latency over every delivered segment, from the causal span "
            "chains (simulated time; deterministic).</p>\n";
    html += "<table><tr><th>Phase</th><th>Count</th><th>p50 (s)</th>"
            "<th>p95 (s)</th><th>p99 (s)</th><th>Total (s)</th></tr>";
    for (const PhaseStats& phase : data.waterfall) {
      html += "<tr><td>" + html_escape(phase.phase) +
              "</td><td class=\"num\">" + std::to_string(phase.count) +
              "</td><td class=\"num\">" + fmt_fixed(phase.p50_s, 3) +
              "</td><td class=\"num\">" + fmt_fixed(phase.p95_s, 3) +
              "</td><td class=\"num\">" + fmt_fixed(phase.p99_s, 3) +
              "</td><td class=\"num\">" + fmt_fixed(phase.total_s, 1) +
              "</td></tr>";
    }
    html += "</table>\n";
  }

  // Stall attribution.
  html += "<h2>Stalls</h2>\n";
  if (data.stalls.empty()) {
    html += "<p class=\"sub\">No stalls recorded.</p>\n";
  } else {
    html += "<table><tr><th>Node</th><th>Start</th><th>Duration</th>"
            "<th>Segment</th><th>Category</th><th>Cause</th>"
            "<th>Anomalies</th></tr>";
    for (std::size_t i = 0; i < data.stalls.size(); ++i) {
      const StallExplanation& stall = data.stalls[i];
      html += "<tr><td class=\"num\">" + std::to_string(stall.node) +
              "</td><td class=\"num\">" +
              fmt_fixed(stall.start.as_seconds(), 1) +
              " s</td><td class=\"num\">" +
              (stall.end.is_infinite()
                   ? std::string{"unresolved"}
                   : fmt_fixed(stall.duration.as_seconds(), 1) + " s") +
              "</td><td class=\"num\">" + std::to_string(stall.segment) +
              "</td><td>" + html_escape(stall.category) + "</td><td>" +
              html_escape(stall.cause) + "</td><td>";
      const std::vector<std::size_t>& refs = stall.anomalies;
      for (std::size_t j = 0; j < refs.size(); ++j) {
        if (j > 0) html += ", ";
        html += "<a href=\"#anomaly-" + std::to_string(refs[j]) + "\">#" +
                std::to_string(refs[j]) + "</a>";
      }
      if (refs.empty()) html += "-";
      html += "</td></tr>";
    }
    html += "</table>\n";
  }

  // Hot-path profile (only present on --profile runs).
  if (!data.profile.empty()) {
    html += "<h2>Profile</h2>\n<p class=\"sub\">Hierarchical phase "
            "profile (wall time; structure is deterministic, the "
            "nanoseconds are not).</p>\n";
    html += "<table><tr><th>Phase</th><th>Count</th><th>Total (ms)</th>"
            "<th>Self (ms)</th><th>Max (ms)</th></tr>";
    for (const ProfileEntry& entry : data.profile.entries) {
      std::string indent;
      for (std::size_t d = 0; d < entry.depth; ++d) {
        indent += "&nbsp;&nbsp;&nbsp;";
      }
      html += "<tr><td>" + indent + html_escape(entry.name) +
              "</td><td class=\"num\">" + std::to_string(entry.count) +
              "</td><td class=\"num\">" +
              fmt_fixed(static_cast<double>(entry.total_ns) / 1e6, 3) +
              "</td><td class=\"num\">" +
              fmt_fixed(static_cast<double>(entry.self_ns) / 1e6, 3) +
              "</td><td class=\"num\">" +
              fmt_fixed(static_cast<double>(entry.max_ns) / 1e6, 3) +
              "</td></tr>";
    }
    html += "</table>\n";
  }

  if (!data.timeline.empty()) {
    html += "<details><summary>Per-viewer timeline</summary><pre>" +
            html_escape(data.timeline) + "</pre></details>\n";
  }

  html += "<footer>Generated by vsplice; self-contained (inline CSS + "
          "SVG, no external assets).</footer>\n";
  html += "</div>\n</body>\n</html>\n";
  return html;
}

}  // namespace vsplice::obs
