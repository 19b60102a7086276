#include "obs/report.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace torsim::obs {

void BenchReport::print_header(const std::string& title) {
  current_section_ = title;
  std::printf("\n==== %s ====\n", title.c_str());
}

void BenchReport::print_row(const std::string& label, double measured,
                            double paper) {
  rows_.push_back({current_section_, label, measured, paper});
  if (paper != 0.0) {
    std::printf("  %-28s measured %10.0f   paper %10.0f   x%.2f\n",
                label.c_str(), measured, paper, measured / paper);
  } else {
    // No paper baseline: a ratio would be meaningless, not 0.00.
    std::printf("  %-28s measured %10.0f   paper %10.0f   n/a\n",
                label.c_str(), measured, paper);
  }
}

void BenchReport::add_benchmark(const std::string& benchmark_name,
                                double real_time_seconds,
                                double cpu_time_seconds,
                                std::int64_t iterations) {
  benchmarks_.push_back(
      {benchmark_name, real_time_seconds, cpu_time_seconds, iterations});
}

std::string BenchReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("torsim-bench-v1");
  json.key("name").value(name_);
  json.key("scale").value(scale_);

  json.key("rows").begin_array();
  for (const Row& row : rows_) {
    json.begin_object();
    json.key("section").value(row.section);
    json.key("label").value(row.label);
    json.key("measured").value(row.measured);
    json.key("paper").value(row.paper);
    json.key("ratio");
    if (row.paper != 0.0)
      json.value(row.measured / row.paper);
    else
      json.null();
    json.end_object();
  }
  json.end_array();

  json.key("benchmarks").begin_array();
  for (const BenchmarkRun& run : benchmarks_) {
    json.begin_object();
    json.key("name").value(run.name);
    json.key("real_time_seconds").value(run.real_time_seconds);
    json.key("cpu_time_seconds").value(run.cpu_time_seconds);
    json.key("iterations").value(run.iterations);
    json.end_object();
  }
  json.end_array();

  json.key("wall_clock").begin_object();
  json.key("phases").begin_object();
  for (const auto& [phase, seconds] : phases_.phases())
    json.key(phase).value(seconds);
  json.end_object();
  json.key("total_seconds").value(phases_.total_seconds());
  json.end_object();

  if (!scenarios_.empty()) {
    json.key("scenarios").begin_array();
    for (const ScenarioSummary& s : scenarios_) {
      json.begin_object();
      json.key("name").value(s.name);
      json.key("horizon_hours").value(static_cast<std::int64_t>(s.horizon_hours));
      json.key("events_applied").value(static_cast<std::int64_t>(s.events_applied));
      json.key("timeline_rows").value(s.timeline_rows);
      json.key("services_migrated").value(s.services_migrated);
      json.key("services_taken_down").value(s.services_taken_down);
      json.key("services_added").value(s.services_added);
      json.key("relays_injected").value(s.relays_injected);
      json.key("flash_fetches_ok").value(s.flash_fetches_ok);
      json.key("flash_fetches_failed").value(s.flash_fetches_failed);
      json.end_object();
    }
    json.end_array();
  }

  json.key("peak_rss_bytes").value(peak_rss_bytes());

  if (serve_section_present_) {
    json.key("serve").begin_object();
    json.key("clients").value(static_cast<std::int64_t>(serve_.clients));
    json.key("threads").value(static_cast<std::int64_t>(serve_.threads));
    json.key("requests").value(serve_.requests);
    json.key("retries").value(serve_.retries);
    json.key("reconnects").value(serve_.reconnects);
    json.key("seconds").value(serve_.seconds);
    json.key("requests_per_second");
    if (serve_.seconds > 0.0)
      json.value(serve_.requests_per_second);
    else
      json.null();  // an unmeasured run has no meaningful rate
    json.key("latency_us").begin_object();
    json.key("edges").begin_array();
    for (const std::int64_t edge : serve_.latency_edges_us) json.value(edge);
    json.end_array();
    json.key("buckets").begin_array();
    for (const std::int64_t bucket : serve_.latency_buckets)
      json.value(bucket);
    json.end_array();
    json.key("count").value(serve_.latency_count);
    json.key("sum").value(serve_.latency_sum_us);
    json.key("p50").value(serve_.latency_p50_us);
    json.key("p90").value(serve_.latency_p90_us);
    json.key("p99").value(serve_.latency_p99_us);
    json.end_object();
    json.end_object();
  }

  if (population_section_present_) {
    json.key("population").begin_object();
    json.key("services").value(population_.services);
    json.key("column_bytes").value(population_.column_bytes);
    json.key("index_bytes").value(population_.index_bytes);
    json.key("interner_bytes").value(population_.interner_bytes);
    json.key("interner_strings").value(population_.interner_strings);
    json.key("legacy_record_bytes").value(population_.legacy_record_bytes);
    json.key("soa_rss_delta_bytes").value(population_.soa_rss_delta_bytes);
    json.key("legacy_rss_delta_bytes")
        .value(population_.legacy_rss_delta_bytes);
    json.key("rss_reduction_bytes")
        .value(population_.legacy_rss_delta_bytes -
               population_.soa_rss_delta_bytes);
    json.key("arena_bytes").value(population_.arena_bytes);
    json.key("arena_live_bytes").value(population_.arena_live_bytes);
    json.key("arena_compactions").value(population_.arena_compactions);
    json.key("peak_rss_budget_bytes")
        .value(population_.peak_rss_budget_bytes);
    json.end_object();
  }

  metrics_.write_json_sections(json);
  json.end_object();
  return json.str();
}

std::string BenchReport::write_json(const std::string& directory) const {
  const std::string dir = directory.empty() ? "." : directory;
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok ? path : "";
}

}  // namespace torsim::obs
