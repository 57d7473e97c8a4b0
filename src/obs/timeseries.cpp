#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/encode.hpp"
#include "obs/metrics.hpp"

namespace netsel::obs {

using detail::fnv1a;
using detail::fnv1a_double;
using detail::fnv1a_str;
using detail::num;

namespace {

struct TsMetrics {
  Counter& samples;
  Counter& dropped;
  Gauge& series;
};

TsMetrics& ts_metrics() {
  static TsMetrics m{
      Registry::global().counter("obs.ts.samples"),
      Registry::global().counter("obs.ts.dropped"),
      Registry::global().gauge("obs.ts.series"),
  };
  return m;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(double cadence_s, std::size_t capacity)
    : cadence_(cadence_s), capacity_(std::max<std::size_t>(capacity, 2)) {
  if (!(cadence_s > 0.0))
    throw std::invalid_argument("TimeSeriesRecorder: cadence must be > 0");
}

void TimeSeriesRecorder::add_counter(std::string name, CounterFn fn) {
  if (rows_ != 0)
    throw std::logic_error("TimeSeriesRecorder: add sources before sampling");
  Series s;
  s.name = std::move(name);
  s.is_counter = true;
  s.counter = std::move(fn);
  series_.push_back(std::move(s));
  ts_metrics().series.set(static_cast<double>(series_.size()));
}

void TimeSeriesRecorder::add_gauge(std::string name, GaugeFn fn) {
  if (rows_ != 0)
    throw std::logic_error("TimeSeriesRecorder: add sources before sampling");
  Series s;
  s.name = std::move(name);
  s.gauge = std::move(fn);
  series_.push_back(std::move(s));
  ts_metrics().series.set(static_cast<double>(series_.size()));
}

void TimeSeriesRecorder::sample_until(double sim_t, bool inclusive) {
  for (;;) {
    const double b = static_cast<double>(next_boundary_) * cadence_;
    if (inclusive ? b > sim_t : b >= sim_t) break;
    emit_row();
  }
}

void TimeSeriesRecorder::emit_row() {
  if (rows_ == capacity_) evict_oldest_row();
  for (Series& s : series_) {
    if (s.is_counter) {
      const std::uint64_t v = s.counter();
      if (rows_ == 0) {
        s.first = v;
      } else {
        s.deltas.push_back(static_cast<std::int64_t>(v - s.last));
      }
      s.last = v;
    } else {
      s.raw.push_back(s.gauge());
    }
  }
  ++rows_;
  ++total_rows_;
  ++next_boundary_;
  ts_metrics().samples.inc();
}

void TimeSeriesRecorder::evict_oldest_row() {
  for (Series& s : series_) {
    if (s.is_counter) {
      if (!s.deltas.empty()) {
        s.first = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(s.first) + s.deltas.front());
        s.deltas.pop_front();
      }
    } else {
      s.raw.pop_front();
    }
  }
  --rows_;
  ts_metrics().dropped.inc();
}

double TimeSeriesRecorder::t_first() const {
  return rows_ == 0
             ? -1.0
             : static_cast<double>(total_rows_ - rows_) * cadence_;
}

double TimeSeriesRecorder::t_last() const {
  return total_rows_ == 0 ? -1.0
                          : static_cast<double>(total_rows_ - 1) * cadence_;
}

std::vector<double> TimeSeriesRecorder::values(const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name != name) continue;
    std::vector<double> out;
    out.reserve(rows_);
    if (s.is_counter) {
      if (rows_ == 0) return out;
      std::uint64_t v = s.first;
      out.push_back(static_cast<double>(v));
      for (std::int64_t d : s.deltas) {
        v = static_cast<std::uint64_t>(static_cast<std::int64_t>(v) + d);
        out.push_back(static_cast<double>(v));
      }
    } else {
      out.assign(s.raw.begin(), s.raw.end());
    }
    return out;
  }
  throw std::out_of_range("TimeSeriesRecorder: unknown series " + name);
}

std::uint64_t TimeSeriesRecorder::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, total_rows_);
  h = fnv1a(h, rows_);
  h = fnv1a_double(h, cadence_);
  for (const Series& s : series_) {
    h = fnv1a_str(h, s.name);
    h = fnv1a(h, s.is_counter ? 1 : 0);
    for (double v : values(s.name)) h = fnv1a_double(h, v);
  }
  return h;
}

void TimeSeriesRecorder::write_json(std::ostream& os) const {
  // Name-sorted like the registry exporters, for stable diffs.
  std::vector<std::size_t> order(series_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return series_[a].name < series_[b].name;
  });
  os << "{\n  \"schema\": \"" << kTimeSeriesSchema << "\",\n"
     << "  \"cadence_s\": " << num(cadence_) << ",\n"
     << "  \"samples\": " << rows_ << ",\n"
     << "  \"dropped\": " << dropped() << ",\n"
     << "  \"t_first\": " << num(t_first()) << ",\n"
     << "  \"t_last\": " << num(t_last()) << ",\n"
     << "  \"series\": {";
  bool first_series = true;
  for (std::size_t idx : order) {
    const Series& s = series_[idx];
    os << (first_series ? "" : ",") << "\n    \"" << s.name << "\": ";
    first_series = false;
    if (s.is_counter) {
      os << "{\"type\":\"counter\",\"first\":" << s.first
         << ",\"last\":" << s.last << ",\"deltas\":[";
      bool first_v = true;
      for (std::int64_t d : s.deltas) {
        os << (first_v ? "" : ",") << d;
        first_v = false;
      }
      os << "]}";
    } else {
      os << "{\"type\":\"gauge\",\"values\":[";
      bool first_v = true;
      for (double v : s.raw) {
        os << (first_v ? "" : ",") << num(v);
        first_v = false;
      }
      os << "]}";
    }
  }
  os << (first_series ? "" : "\n  ") << "}\n}\n";
}

void TimeSeriesRecorder::write_csv(std::ostream& os) const {
  std::vector<std::size_t> order(series_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return series_[a].name < series_[b].name;
  });
  os << "t";
  for (std::size_t idx : order) os << "," << series_[idx].name;
  os << "\n";
  std::vector<std::vector<double>> cols;
  cols.reserve(order.size());
  for (std::size_t idx : order) cols.push_back(values(series_[idx].name));
  for (std::size_t r = 0; r < rows_; ++r) {
    os << num(t_first() + static_cast<double>(r) * cadence_);
    for (const auto& col : cols) os << "," << num(col[r]);
    os << "\n";
  }
}

void TimeSeriesRecorder::write_chrome_counters(std::ostream& os) const {
  os << ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"sim timeline\"}}";
  for (const Series& s : series_) {
    const std::vector<double> vals = values(s.name);
    for (std::size_t r = 0; r < vals.size(); ++r) {
      const double t_us =
          (t_first() + static_cast<double>(r) * cadence_) * 1e6;
      os << ",\n{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"" << s.name
         << "\",\"ts\":" << num(t_us) << ",\"args\":{\"value\":"
         << num(vals[r]) << "}}";
    }
  }
}

}  // namespace netsel::obs
