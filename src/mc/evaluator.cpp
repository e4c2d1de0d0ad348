#include "mc/evaluator.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_set>

#include "mc/journal.h"
#include "util/parallel.h"

namespace fav::mc {

using rtl::Machine;
using rtl::RegisterMap;

const char* outcome_path_name(OutcomePath path) {
  switch (path) {
    case OutcomePath::kMasked: return "masked";
    case OutcomePath::kAnalytical: return "analytical";
    case OutcomePath::kRtl: return "rtl";
    case OutcomePath::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Per-outcome-path latency timer name ("eval.sample.<path>_ns").
std::string path_timer_name(OutcomePath path) {
  return std::string("eval.sample.") + outcome_path_name(path) + "_ns";
}

}  // namespace

EvalBudget::EvalBudget(std::uint64_t cycle_budget, std::uint64_t deadline_ms)
    : cycles_left_(cycle_budget),
      limit_cycles_(cycle_budget > 0),
      limit_time_(deadline_ms > 0) {
  if (limit_time_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(deadline_ms);
  }
}

void EvalBudget::charge_cycles(std::uint64_t cycles) {
  if (limit_cycles_) {
    if (cycles > cycles_left_) {
      cycles_left_ = 0;
      throw StatusError(ErrorCode::kCycleBudgetExceeded,
                        "per-sample RTL cycle budget exhausted");
    }
    cycles_left_ -= cycles;
  }
  // The clock read is amortized: one probe every 64 charges.
  if (limit_time_ && (++ticks_ & 63u) == 0 &&
      std::chrono::steady_clock::now() > deadline_) {
    throw StatusError(ErrorCode::kDeadlineExceeded,
                      "per-sample wall-clock deadline exhausted");
  }
}

EvalScratch::EvalScratch(const SsfEvaluator& evaluator)
    : machine_(evaluator.golden().program()),
      gate_(evaluator.soc(), evaluator.golden().program()),
      words_(evaluator.soc().netlist()),
      resume_(evaluator.golden().program()) {}

SsfEvaluator::SsfEvaluator(
    const soc::SocNetlist& soc, const faultsim::AttackTechnique& technique,
    const soc::SecurityBenchmark& bench, const rtl::GoldenRun& golden,
    const precharac::RegisterCharacterization* characterization,
    const EvaluatorConfig& config)
    : soc_(&soc),
      technique_(&technique),
      bench_(&bench),
      golden_(&golden),
      charac_(characterization),
      config_(config),
      analytical_(bench, golden),
      settled_(std::make_unique<soc::GoldenSettledTable>(soc, golden)) {
  target_cycle_ = analytical_.target_cycle();
  FAV_ENSURE(config.trace_stride > 0);
}

SsfEvaluator::SsfEvaluator(
    const soc::SocNetlist& soc, const layout::Placement& placement,
    const faultsim::InjectionSimulator& injector,
    const soc::SecurityBenchmark& bench, const rtl::GoldenRun& golden,
    const precharac::RegisterCharacterization* characterization,
    const EvaluatorConfig& config)
    : soc_(&soc),
      owned_technique_(
          std::make_unique<faultsim::RadiationTechnique>(placement, injector)),
      technique_(owned_technique_.get()),
      bench_(&bench),
      golden_(&golden),
      charac_(characterization),
      config_(config),
      analytical_(bench, golden),
      settled_(std::make_unique<soc::GoldenSettledTable>(soc, golden)) {
  target_cycle_ = analytical_.target_cycle();
  FAV_ENSURE(config.trace_stride > 0);
}

bool SsfEvaluator::decide_outcome(rtl::Machine& machine,
                                  const std::vector<int>& flips,
                                  std::uint64_t first_faulty_cycle,
                                  OutcomePath* path, EvalBudget& budget,
                                  MetricsSink* sink) const {
  if (flips.empty()) {
    if (path != nullptr) *path = OutcomePath::kMasked;
    return false;
  }
  if (config_.use_analytical && charac_ != nullptr) {
    bool all_memory_type = true;
    for (const int bit : flips) {
      if (!charac_->is_memory_type(bit)) {
        all_memory_type = false;
        break;
      }
    }
    if (all_memory_type) {
      ScopeTimer timer(sink, "eval.analytical_ns");
      const auto verdict =
          analytical_.evaluate(machine.state(), first_faulty_cycle);
      if (verdict.has_value()) {
        if (path != nullptr) *path = OutcomePath::kAnalytical;
        return *verdict;
      }
    }
  }
  if (path != nullptr) *path = OutcomePath::kRtl;
  ScopeTimer timer(sink, "eval.rtl_resume_ns");
  const std::uint64_t resume_from = machine.cycle();
  while (!machine.halted() && machine.cycle() < bench_->max_cycles) {
    budget.charge_cycles(1);
    machine.step();
  }
  if (sink != nullptr) {
    sink->add_counter("rtl.resume_cycles", machine.cycle() - resume_from);
  }
  return bench_->attack_succeeded(machine.state(), machine.ram());
}

bool SsfEvaluator::outcome_for_flips(std::uint64_t te,
                                     const std::vector<int>& flips,
                                     OutcomePath* path) const {
  const RegisterMap& map = Machine::reg_map();
  if (flips.empty()) {
    if (path != nullptr) *path = OutcomePath::kMasked;
    return false;
  }
  // Execute the injection cycle at RTL level, then overlay the latched
  // errors: they take effect from cycle te+1 (Fig. 5 step 5).
  EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
  std::uint64_t warmup = 0;
  Machine machine = golden_->restore(te, &warmup);
  budget.charge_cycles(warmup + 1);
  machine.step();
  for (const int bit : flips) map.flip_bit(machine.mutable_state(), bit);
  return decide_outcome(machine, flips, te + 1, path, budget);
}

SampleRecord SsfEvaluator::evaluate_sample(
    const faultsim::FaultSample& sample) const {
  EvalScratch scratch(*this);
  return evaluate_sample(sample, scratch);
}

SampleRecord SsfEvaluator::evaluate_sample(const faultsim::FaultSample& sample,
                                           EvalScratch& scratch,
                                           MetricsSink* sink) const {
  SampleRecord rec;
  rec.sample = sample;
  technique_->check_sample(sample);
  if (static_cast<std::uint64_t>(sample.t) > target_cycle_) {
    // Injection before the program starts: nothing to strike.
    rec.te = 0;
    rec.path = OutcomePath::kMasked;
    return rec;
  }
  rec.te = target_cycle_ - static_cast<std::uint64_t>(sample.t);

  // Gate-level injection cycle(s). Multi-cycle impact (sample.impact_cycles
  // > 1) applies the same technique parameters on consecutive cycles: each
  // cycle is settled on the *already-corrupted* state, its latched errors
  // overlaid, and the machine advanced — the paper's "multi-cycle impact"
  // extension.
  EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
  const RegisterMap& map = Machine::reg_map();

  // The scratch machines are fully re-loaded here: restore_into rewrites the
  // RTL state/RAM/cycle, and load_state + settle_inputs rewrite every
  // register, input, and combinational value of the gate-level simulator —
  // no state survives from the previous sample.
  Machine& machine = scratch.machine_;
  std::uint64_t warmup = 0;
  {
    ScopeTimer timer(sink, "eval.restore_ns");
    golden_->restore_into(machine, rec.te, &warmup);
  }
  if (sink != nullptr) {
    sink->add_counter("rtl.warmup_cycles", warmup);
    sink->add_counter("rtl.restore_bytes", golden_->restore_byte_size());
  }
  budget.charge_cycles(warmup);
  soc::GateLevelMachine& gate = scratch.gate_;
  std::set<int> flipped;
  {
    ScopeTimer timer(sink, "eval.gate_inject_ns");
    const std::uint64_t settles_before = gate.total_settles();
    std::uint64_t injection_cycles = 0;
    for (int j = 0; j < sample.impact_cycles && !machine.halted(); ++j) {
      budget.charge_cycles(1);
      ++injection_cycles;
      gate.load_state(machine.state());
      gate.mutable_ram() = machine.ram();
      gate.settle_inputs();
      technique_->flip_set(gate.sim(), scratch.technique_, sample,
                           scratch.flipped_dffs_);
      machine.step();
      for (const netlist::NodeId dff : scratch.flipped_dffs_) {
        const int bit = soc_->flat_bit_for_dff(dff);
        FAV_CHECK(bit >= 0);
        map.flip_bit(machine.mutable_state(), bit);
        flipped.insert(bit);
      }
    }
    if (sink != nullptr) {
      sink->add_counter("gate.injection_cycles", injection_cycles);
      sink->add_counter("gate.settle_passes",
                        gate.total_settles() - settles_before);
    }
  }
  rec.flipped_bits.assign(flipped.begin(), flipped.end());

  // `machine` is already positioned just past the last injection cycle with
  // every latched error overlaid; for impact_cycles == 1 this is exactly the
  // state outcome_for_flips would reconstruct.
  rec.success = decide_outcome(
      machine, rec.flipped_bits,
      rec.te + static_cast<std::uint64_t>(sample.impact_cycles), &rec.path,
      budget, sink);
  rec.contribution = rec.success ? sample.weight : 0.0;
  return rec;
}

SampleRecord SsfEvaluator::evaluate_sample_isolated(
    const faultsim::FaultSample& sample,
    std::unique_ptr<EvalScratch>& scratch, MetricsSink* sink) const {
  auto classify = [](const std::exception& e) {
    if (const auto* se = dynamic_cast<const StatusError*>(&e)) {
      return se->code();
    }
    return ErrorCode::kSampleEvalFailed;
  };
  ErrorCode code;
  std::string reason;
  try {
    return evaluate_sample(sample, *scratch, sink);
  } catch (const std::exception& e) {
    code = classify(e);
    reason = e.what();
  }
  // A cycle-budget overrun is deterministic — the retry would burn the same
  // cycles and fail identically, so only other failures are re-attempted,
  // on a *fresh* scratch in case the failed attempt left the machines in an
  // inconsistent state.
  bool retried = false;
  if (config_.retry_failed && code != ErrorCode::kCycleBudgetExceeded) {
    retried = true;
    {
      ScopeTimer timer(sink, "eval.scratch_rebuild_ns");
      scratch = std::make_unique<EvalScratch>(*this);
    }
    try {
      SampleRecord rec = evaluate_sample(sample, *scratch, sink);
      rec.retried = true;
      return rec;
    } catch (const std::exception& e) {
      code = classify(e);
      reason = e.what();
    }
  }
  SampleRecord rec;
  rec.sample = sample;
  rec.path = OutcomePath::kFailed;
  rec.fail_code = code;
  rec.fail_reason = reason;
  rec.retried = retried;
  return rec;
}

void SsfEvaluator::fold_record(ReduceState& state, SampleRecord&& rec) const {
  const RegisterMap& map = Machine::reg_map();
  SsfResult& result = state.result;
  result.total_weight += rec.sample.weight;
  if (rec.retried) ++result.retried;
  if (rec.path == OutcomePath::kFailed) {
    // Failed samples carry no estimate: the mean stays well-defined over
    // completed samples, and the failed weight bounds what was lost.
    ++result.failed;
    result.failed_weight += rec.sample.weight;
    ++result.failure_counts[rec.fail_code];
  } else {
    result.completed_weight += rec.sample.weight;
    result.completed_weight_sq += rec.sample.weight * rec.sample.weight;
    result.stats.add(rec.contribution);
    switch (rec.path) {
      case OutcomePath::kMasked: ++result.masked; break;
      case OutcomePath::kAnalytical: ++result.analytical; break;
      case OutcomePath::kRtl: ++result.rtl; break;
      case OutcomePath::kFailed: break;  // unreachable
    }
  }
  if (rec.success) {
    ++result.successes;
    std::unordered_set<int> fields;
    for (const int bit : rec.flipped_bits) {
      fields.insert(map.locate(bit).first);
    }
    if (!fields.empty()) {
      const double share =
          rec.contribution / static_cast<double>(fields.size());
      for (const int f : fields) result.field_contribution[f] += share;
    }
    if (!rec.flipped_bits.empty()) {
      const double share =
          rec.contribution / static_cast<double>(rec.flipped_bits.size());
      for (const int bit : rec.flipped_bits) {
        result.bit_contribution[bit] += share;
      }
    }
  }
  if ((state.index + 1) % config_.trace_stride == 0) {
    result.trace.push_back(result.stats.mean());
  }
  if (config_.keep_records) {
    // The capacity cap keeps the first N records in sample-index order:
    // a deterministic prefix, not a sampling of the run.
    if (config_.record_capacity == 0 ||
        result.records.size() < config_.record_capacity) {
      result.records.push_back(std::move(rec));
    } else {
      ++state.records_dropped;
    }
  }
  ++state.index;
}

SsfResult SsfEvaluator::finish_reduce(ReduceState&& state) const {
  SsfResult result = std::move(state.result);
  result.evaluated = state.index;
  // Sample-derived aggregates land in the caller's sink here, inside the
  // sample-index-ordered reduction, so they are deterministic at every
  // thread count (unlike the wall-clock timers merged from worker sinks).
  // reduce_metrics is off inside supervised workers, whose records are
  // re-reduced (and re-counted) by the supervisor.
  if (config_.metrics != nullptr && config_.reduce_metrics) {
    MetricsSink& m = *config_.metrics;
    m.add_counter("eval.samples", state.index);
    m.add_counter("eval.path.masked", result.masked);
    m.add_counter("eval.path.analytical", result.analytical);
    m.add_counter("eval.path.rtl", result.rtl);
    m.add_counter("eval.path.failed", result.failed);
    m.add_counter("eval.retried", result.retried);
    m.add_counter("eval.successes", result.successes);
    m.add_counter("eval.records_dropped", state.records_dropped);
    m.set_gauge("eval.ess", result.effective_sample_size());
    m.set_gauge("eval.ssf", result.ssf());
    m.set_gauge("eval.failed_weight_fraction",
                result.failed_weight_fraction());
    // Word occupancy over every batched run this sink has merged.
    const std::uint64_t words = m.counter("eval.batch_groups");
    if (words > 0) {
      m.set_gauge("eval.lane_occupancy",
                  static_cast<double>(m.counter("eval.batch_lanes")) /
                      (64.0 * static_cast<double>(words)));
    }
  }
  return result;
}

SsfResult SsfEvaluator::reduce(std::vector<SampleRecord>&& records) const {
  ReduceState state;
  for (SampleRecord& rec : records) fold_record(state, std::move(rec));
  return finish_reduce(std::move(state));
}

std::vector<faultsim::FaultSample> SsfEvaluator::draw_batch(
    Sampler& sampler, Rng& rng, std::size_t n) const {
  // Pre-draw the whole batch sequentially. Sampler and Rng are stateful and
  // not thread-safe; drawing on the calling thread keeps the random stream
  // bitwise-identical to the sequential engine for every thread count
  // (evaluation itself consumes no randomness).
  std::vector<faultsim::FaultSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      samples.push_back(sampler.draw(rng));
    } catch (const std::exception& e) {
      throw StatusError(ErrorCode::kSamplerFailed,
                        "sampler '" + sampler.name() + "' failed at draw " +
                            std::to_string(i) + ": " + e.what());
    }
  }
  return samples;
}

std::vector<std::unique_ptr<EvalScratch>> SsfEvaluator::make_scratch_pool(
    std::size_t n) const {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(resolve_thread_count(config_.threads),
                                        std::max<std::size_t>(n, 1)));
  if (workers > 1) {
    // Materialize the netlist's lazily-derived data (topological order,
    // levels, fanouts) before the workers share it read-only.
    soc_->netlist().levels();
  }
  std::vector<std::unique_ptr<EvalScratch>> scratch;
  scratch.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    scratch.push_back(std::make_unique<EvalScratch>(*this));
  }
  return scratch;
}

SsfEvaluator::WorkerObservers SsfEvaluator::make_observers(
    std::size_t workers) const {
  WorkerObservers obs;
  if (config_.metrics != nullptr) obs.sinks.resize(workers);
  if (config_.trace != nullptr) obs.traces.resize(workers);
  return obs;
}

void SsfEvaluator::merge_observers(WorkerObservers&& observers) const {
  // Worker-index order: the merged counter totals are schedule-independent
  // anyway (each sample contributes the same increments wherever it ran),
  // but a fixed fold order keeps the aggregation itself deterministic.
  if (config_.metrics != nullptr) {
    for (const MetricsSink& sink : observers.sinks) {
      config_.metrics->merge(sink);
    }
  }
  if (config_.trace != nullptr) {
    for (TraceBuffer& buf : observers.traces) {
      config_.trace->merge(std::move(buf));
    }
  }
}

void SsfEvaluator::evaluate_range(
    const std::vector<faultsim::FaultSample>& samples,
    std::vector<SampleRecord>& records, std::size_t lo, std::size_t hi,
    std::vector<std::unique_ptr<EvalScratch>>& scratch,
    WorkerObservers* observers) const {
  // Evaluate each sample into its own slot; workers reuse per-thread scratch
  // machines. Block scheduling is dynamic (sample cost varies by outcome
  // path), which is safe because slot writes, not schedule order, carry the
  // results. Instrumentation writes only into the worker's own sink/trace
  // slot (merged later), so observing a run cannot perturb it.
  const bool timing = observers != nullptr && (!observers->sinks.empty() ||
                                               !observers->traces.empty());
  auto sink_for = [&](std::size_t worker) -> MetricsSink* {
    return observers != nullptr && !observers->sinks.empty()
               ? &observers->sinks[worker]
               : nullptr;
  };
  // Publishes a finished records[i]: its latency timer and trace event
  // (timed from t0), progress, and the on_sample hook.
  auto publish = [&](std::size_t worker, std::size_t i, std::uint64_t t0) {
    if (timing) {
      const std::uint64_t dur = monotonic_ns() - t0;
      if (MetricsSink* sink = sink_for(worker)) {
        sink->add_timer_ns(path_timer_name(records[i].path), dur);
      }
      if (!observers->traces.empty()) {
        observers->traces[worker].record(
            outcome_path_name(records[i].path), "sample", t0, dur,
            static_cast<std::uint32_t>(worker), i);
      }
    }
    if (config_.progress != nullptr) {
      const bool failed = records[i].path == OutcomePath::kFailed;
      config_.progress->record(failed ? 0.0 : records[i].contribution,
                               records[i].sample.weight, failed);
    }
    if (config_.on_sample) config_.on_sample(records[i], i);
  };
  auto eval_one = [&](std::size_t worker, std::size_t i) {
    const std::uint64_t t0 = timing ? monotonic_ns() : 0;
    records[i] =
        evaluate_sample_isolated(samples[i], scratch[worker], sink_for(worker));
    publish(worker, i, t0);
  };

  // Word-parallel batching: pack samples into words of up to lane_cap lanes
  // in sample order, whatever their injection cycle te; each lane reads its
  // gate-level values from te's golden settled row. Eligibility mirrors the
  // scalar flow exactly — a sample whose parameters fail check_sample, that
  // lands before the program starts, that needs multi-cycle impact, or
  // whose row cannot be built keeps its scalar evaluation (a singleton
  // unit), which reproduces any failure. Packing and row building run
  // sequentially on this thread from the sample order, so the unit list —
  // and with it every record and counter — is identical at every thread
  // count.
  const std::size_t lane_cap = std::min<std::size_t>(config_.batch_lanes, 64);
  const bool batching =
      lane_cap >= 2 && technique_->supports_batch() && hi - lo >= 2;
  // rows[i - lo]: sample i's golden row (null when it stays scalar).
  std::vector<const soc::GoldenSettledTable::Row*> rows(hi - lo, nullptr);
  MetricsSink* sink0 = sink_for(0);
  auto find_row = [&](std::size_t i, std::uint64_t te) {
    EvalScratch& sc = *scratch[0];
    const std::uint64_t settles_before = sc.gate_.total_settles();
    const std::uint64_t t0 = sink0 != nullptr ? monotonic_ns() : 0;
    bool built = false;
    try {
      rows[i - lo] = &settled_->row(te, sc.machine_, sc.gate_, &built);
    } catch (const std::exception&) {
      return false;
    }
    if (built && sink0 != nullptr) {
      sink0->add_timer_ns("eval.golden_rows_ns", monotonic_ns() - t0);
      sink0->add_counter("eval.golden_rows", 1);
      sink0->add_counter("rtl.warmup_cycles", rows[i - lo]->warmup);
      sink0->add_counter("rtl.restore_bytes", golden_->restore_byte_size());
      sink0->add_counter("gate.settle_passes",
                         sc.gate_.total_settles() - settles_before);
    }
    return true;
  };
  std::vector<std::vector<std::size_t>> units;
  std::size_t word = hi;  // the unit being filled; hi = none yet
  for (std::size_t i = lo; i < hi; ++i) {
    const faultsim::FaultSample& s = samples[i];
    bool eligible = batching && s.impact_cycles == 1;
    if (eligible) {
      try {
        technique_->check_sample(s);
      } catch (const std::exception&) {
        eligible = false;  // the scalar path records the failure
      }
    }
    if (eligible && static_cast<std::uint64_t>(s.t) > target_cycle_) {
      eligible = false;  // early-masked: nothing to strike, stays scalar
    }
    if (eligible) {
      eligible = find_row(i, target_cycle_ - static_cast<std::uint64_t>(s.t));
    }
    if (!eligible) {
      units.push_back({i});
      continue;
    }
    if (word == hi || units[word].size() == lane_cap) {
      word = units.size();
      units.emplace_back();
    }
    units[word].push_back(i);
  }

  auto eval_unit = [&](std::size_t worker, std::size_t u) {
    const std::vector<std::size_t>& unit = units[u];
    if (unit.size() == 1) {
      eval_one(worker, unit[0]);
      return;
    }
    evaluate_word(
        samples, records, unit, rows, lo, *scratch[worker], sink_for(worker),
        timing, [&](std::size_t i) { eval_one(worker, i); },
        [&](std::size_t i, std::uint64_t t0) { publish(worker, i, t0); });
  };
  if (scratch.size() <= 1) {
    for (std::size_t u = 0; u < units.size(); ++u) eval_unit(0, u);
    return;
  }
  parallel_for(units.size(), scratch.size(), /*grain=*/batching ? 1 : 8,
               [&](std::size_t worker, std::size_t b, std::size_t e) {
                 for (std::size_t u = b; u < e; ++u) eval_unit(worker, u);
               });
}

void SsfEvaluator::evaluate_word(
    const std::vector<faultsim::FaultSample>& samples,
    std::vector<SampleRecord>& records, const std::vector<std::size_t>& unit,
    const std::vector<const soc::GoldenSettledTable::Row*>& rows,
    std::size_t lo, EvalScratch& sc, MetricsSink* sink, bool timing,
    const std::function<void(std::size_t)>& scalar_eval,
    const std::function<void(std::size_t, std::uint64_t)>& publish) const {
  std::uint64_t word_ns = 0;  // the shared phases, timed once per word
  auto te_of = [&](std::size_t lane) {
    return target_cycle_ - static_cast<std::uint64_t>(samples[unit[lane]].t);
  };
  auto row_of = [&](std::size_t lane) -> const soc::GoldenSettledTable::Row& {
    return *rows[unit[lane] - lo];
  };

  // Shared phase: gather each lane's settled injection cycle from its te's
  // golden row, then one bit-parallel flip-set sweep for the whole word. No
  // budget is charged here — the per-lane finalization below replays the
  // scalar charge sequence exactly, so budget overruns fail lane-by-lane
  // with scalar-identical records.
  const std::size_t lanes = unit.size();
  sc.lane_images_.clear();
  sc.lane_samples_.clear();
  for (const std::size_t i : unit) {
    sc.lane_images_.push_back(&rows[i - lo]->values);
    sc.lane_samples_.push_back(samples[i]);
  }
  bool shared_ok = true;
  {
    const std::uint64_t t0 = timing ? monotonic_ns() : 0;
    try {
      ScopeTimer timer(sink, "eval.gate_inject_ns");
      {
        ScopeTimer gather(sink, "eval.batch.gather_ns");
        sc.words_.load_lanes(sc.lane_images_);
      }
      {
        ScopeTimer sweep(sink, "eval.batch.sweep_ns");
        technique_->flip_set_batch(sc.words_, sc.technique_,
                                   sc.lane_samples_, sc.lane_flips_);
      }
      const std::size_t visited = sc.technique_.batch.visited();
      if (sink != nullptr && visited > 0) {
        sink->add_counter("faultsim.sweep_nodes", visited);
      }
    } catch (const std::exception&) {
      shared_ok = false;
    }
    if (timing) word_ns += monotonic_ns() - t0;
  }
  if (!shared_ok) {
    // The sweep failed deterministically; the scalar replay reproduces the
    // identical failure — and its retry / kFailed record — per sample.
    if (sink != nullptr) sink->add_timer_ns("eval.batch.word_ns", word_ns);
    for (const std::size_t i : unit) scalar_eval(i);
    return;
  }

  // Per-lane finalization, timed from its own start. `injected` is the
  // lane's te just past the injection cycle (null for a masked lane).
  const RegisterMap& map = Machine::reg_map();
  auto finalize = [&](std::size_t l, const Machine* injected) {
    const std::size_t i = unit[l];
    const std::uint64_t t0 = timing ? monotonic_ns() : 0;
    const faultsim::FaultSample& s = samples[i];
    const soc::GoldenSettledTable::Row& row = row_of(l);
    SampleRecord rec;
    bool done = false;
    try {
      rec.sample = s;
      rec.te = te_of(l);
      // Replay the scalar budget charges: warm-up after restore, then one
      // cycle for the injection cycle (skipped when the machine was already
      // halted, exactly as the scalar loop guard skips it — the scalar flow
      // then flips nothing either).
      EvalBudget budget(config_.cycle_budget, config_.sample_deadline_ms);
      budget.charge_cycles(row.warmup);
      if (!row.halted) budget.charge_cycles(1);
      if (injected != nullptr) {
        std::set<int> flipped;
        for (const netlist::NodeId dff : sc.lane_flips_[l]) {
          const int bit = soc_->flat_bit_for_dff(dff);
          FAV_CHECK(bit >= 0);
          flipped.insert(bit);
        }
        rec.flipped_bits.assign(flipped.begin(), flipped.end());
        // Only diverging lanes pay for an RTL resume: copy the post-injection
        // state of their te, overlay this lane's errors, and decide.
        sc.resume_ = *injected;
        for (const int bit : rec.flipped_bits) {
          map.flip_bit(sc.resume_.mutable_state(), bit);
        }
        rec.success = decide_outcome(sc.resume_, rec.flipped_bits,
                                     rec.te + 1, &rec.path, budget, sink);
      }
      rec.contribution = rec.success ? s.weight : 0.0;
      done = true;
    } catch (const StatusError& e) {
      if (e.code() == ErrorCode::kCycleBudgetExceeded) {
        // Deterministic overrun: the scalar path records it without retry.
        rec = SampleRecord{};
        rec.sample = s;
        rec.path = OutcomePath::kFailed;
        rec.fail_code = e.code();
        rec.fail_reason = e.what();
        done = true;
      }
    } catch (const std::exception&) {
      // Fall through to the scalar replay below.
    }
    if (!done) {
      // Retryable failure (deadline, check failure, ...): the scalar replay
      // owns the full isolation protocol, including the fresh-scratch retry.
      scalar_eval(i);
      return;
    }
    records[i] = std::move(rec);
    publish(i, t0);
  };

  // Masked lanes finish at once. Lanes that flipped bits are sorted by te,
  // so each distinct te costs one restore + injection-cycle step.
  sc.flipping_lanes_.clear();
  for (std::size_t l = 0; l < lanes; ++l) {
    if (row_of(l).halted || sc.lane_flips_[l].empty()) {
      finalize(l, nullptr);
    } else {
      sc.flipping_lanes_.push_back(l);
    }
  }
  std::stable_sort(
      sc.flipping_lanes_.begin(), sc.flipping_lanes_.end(),
      [&](std::size_t a, std::size_t b) { return te_of(a) < te_of(b); });
  std::uint64_t restores = 0;
  bool restored = false;
  for (std::size_t k = 0; k < sc.flipping_lanes_.size(); ++k) {
    const std::size_t l = sc.flipping_lanes_[k];
    if (k == 0 || te_of(l) != te_of(sc.flipping_lanes_[k - 1])) {
      const std::uint64_t t0 = timing ? monotonic_ns() : 0;
      try {
        ScopeTimer timer(sink, "eval.restore_ns");
        golden_->restore_into(sc.machine_, te_of(l));
        sc.machine_.step();
        restored = true;
      } catch (const std::exception&) {
        restored = false;
      }
      if (timing) word_ns += monotonic_ns() - t0;
      ++restores;
      if (sink != nullptr) {
        sink->add_counter("rtl.warmup_cycles", row_of(l).warmup);
        sink->add_counter("rtl.restore_bytes", golden_->restore_byte_size());
      }
    }
    if (restored) {
      finalize(l, &sc.machine_);
    } else {
      scalar_eval(unit[l]);
    }
  }
  if (sink != nullptr) {
    sink->add_counter("eval.batch_groups", 1);
    sink->add_counter("eval.batch_lanes", lanes);
    sink->add_counter("eval.batch_restores", restores);
    sink->add_counter("eval.batch_restore_saved", lanes - restores);
    sink->add_counter("gate.injection_cycles", 1);
    sink->add_timer_ns("eval.batch.word_ns", word_ns);
  }
}

SsfResult SsfEvaluator::run_batch(
    std::vector<faultsim::FaultSample> samples) const {
  // The sample list is the whole contract: any caller that can enumerate or
  // draw FaultSamples (MC samplers, exact enumeration drivers, replay tools)
  // inherits the full pipeline — worker pool, isolation, observability and
  // the deterministic sample-index-ordered reduction.
  const std::size_t n = samples.size();
  std::vector<SampleRecord> records(n);
  std::vector<std::unique_ptr<EvalScratch>> scratch;
  {
    ScopeTimer timer(config_.metrics, "run.scratch_setup_ns");
    scratch = make_scratch_pool(n);
  }
  WorkerObservers observers = make_observers(scratch.size());
  // With a stop flag the batch is evaluated in chunks so a SIGINT lands
  // within one chunk of work; without one, a single range call avoids the
  // (small) per-chunk scheduling barrier.
  std::size_t done = n;
  if (config_.stop == nullptr) {
    evaluate_range(samples, records, 0, n, scratch, &observers);
  } else {
    constexpr std::size_t kStopChunk = 256;
    done = 0;
    while (done < n && !config_.stop->load(std::memory_order_relaxed)) {
      const std::size_t hi = std::min(done + kStopChunk, n);
      evaluate_range(samples, records, done, hi, scratch, &observers);
      done = hi;
    }
  }
  merge_observers(std::move(observers));
  // Reduce in sample-index order — the exact accumulation a sequential loop
  // would perform, so the estimate is independent of the schedule.
  ScopeTimer timer(config_.metrics, "run.reduce_ns");
  records.resize(done);
  SsfResult result = reduce(std::move(records));
  result.interrupted = done < n;
  return result;
}

SsfResult SsfEvaluator::run(Sampler& sampler, Rng& rng, std::size_t n) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  std::vector<faultsim::FaultSample> samples;
  {
    ScopeTimer timer(config_.metrics, "run.draw_batch_ns");
    samples = draw_batch(sampler, rng, n);
  }
  return run_batch(std::move(samples));
}

Result<SsfResult> SsfEvaluator::run_journaled(
    Sampler& sampler, Rng& rng, std::size_t n,
    const JournalOptions& options) const {
  if (options.dir.empty()) {
    return Status(ErrorCode::kInvalidArgument, "journal directory is empty");
  }
  if (options.shard_size == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "journal shard_size must be > 0");
  }
  std::vector<faultsim::FaultSample> samples;
  try {
    samples = draw_batch(sampler, rng, n);
  } catch (const StatusError& e) {
    return e.status();
  }

  JournalMeta meta;
  meta.fingerprint = options.fingerprint;
  meta.total_samples = n;
  meta.context = options.context;

  std::vector<SampleRecord> records(n);
  std::size_t done = 0;  // records [0, done) restored from the journal
  std::uint64_t valid_bytes = 0;
  if (options.resume) {
    Result<JournalContents> loaded = read_journal(options.dir);
    if (!loaded.is_ok()) return loaded.status();
    JournalContents& j = loaded.value();
    valid_bytes = j.valid_bytes;
    if (j.meta.fingerprint != meta.fingerprint ||
        j.meta.total_samples != meta.total_samples) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal belongs to a different campaign (fingerprint or "
                    "sample count mismatch)");
    }
    done = std::min(j.records.size(), n);
    for (std::size_t i = 0; i < done; ++i) {
      // Cross-check the journaled sample against the freshly re-drawn one:
      // a mismatch means the sampler/seed/config changed under the journal.
      if (!sample_matches(j.records[i].sample, samples[i])) {
        return Status(ErrorCode::kJournalCorrupt,
                      "journaled sample " + std::to_string(i) +
                          " does not match the re-drawn sample stream");
      }
      records[i] = std::move(j.records[i]);
    }
  }

  JournalWriter writer;
  writer.set_metrics(config_.metrics);
  const Status open = options.resume && done > 0
                          ? writer.open_append(options.dir, valid_bytes)
                          : writer.open_fresh(options.dir, meta);
  if (!open.is_ok()) return open;
  if (config_.metrics != nullptr) {
    config_.metrics->add_counter("journal.resumed_records", done);
  }

  auto scratch = make_scratch_pool(n);
  WorkerObservers observers = make_observers(scratch.size());
  // The stop flag is polled at shard granularity: a shard either completes
  // and is committed to the journal, or was never started — so an
  // interrupted run leaves exactly the journal a crash would, and resume
  // continues from the first missing index either way.
  for (std::size_t lo = done; lo < n; lo += options.shard_size) {
    if (config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    const std::size_t hi = std::min(lo + options.shard_size, n);
    evaluate_range(samples, records, lo, hi, scratch, &observers);
    const Status appended = writer.append_shard(lo, &records[lo], hi - lo);
    if (!appended.is_ok()) {
      if (appended.code() == ErrorCode::kStorageFull) {
        // The disk filled (or failed) mid-campaign. Everything journaled so
        // far is durable, so stop gracefully with a partial, resumable
        // result instead of erroring out — exactly like a stop-flag
        // interruption. `done` excludes the shard whose append failed.
        if (config_.metrics != nullptr) {
          config_.metrics->add_counter("journal.storage_full_stops");
        }
        break;
      }
      return appended;
    }
    done = hi;
  }
  merge_observers(std::move(observers));
  records.resize(done);
  SsfResult result = reduce(std::move(records));
  result.interrupted = done < n;
  return result;
}

SsfResult SsfEvaluator::reduce_records(
    std::vector<SampleRecord> records) const {
  return reduce(std::move(records));
}

namespace {

// Effective sweep length: the bound space clipped by --space-limit.
std::size_t exhaustive_total(std::uint64_t space, std::uint64_t space_limit) {
  const std::uint64_t n = space_limit == 0 ? space
                                           : std::min(space, space_limit);
  return static_cast<std::size_t>(n);
}

}  // namespace

SsfResult SsfEvaluator::run_exhaustive(std::uint64_t space_limit) const {
  ScopeTimer run_timer(config_.metrics, "run.total_ns");
  const std::uint64_t space = technique_->space_size();
  if (space == 0) {
    throw StatusError(ErrorCode::kInvalidArgument,
                      std::string("technique '") + technique_->name() +
                          "' has no bound fault space (call bind_space "
                          "before run_exhaustive)");
  }
  const std::size_t n = exhaustive_total(space, space_limit);
  std::vector<std::unique_ptr<EvalScratch>> scratch;
  {
    ScopeTimer timer(config_.metrics, "run.scratch_setup_ns");
    scratch = make_scratch_pool(n);
  }
  WorkerObservers observers = make_observers(scratch.size());
  // Stream the enumeration in bounded chunks: memory stays O(kChunk) no
  // matter how large the grid is, and the chunk-local records are folded
  // into the running reduction in enumeration-index order — the exact
  // accumulation one reduce() over the materialized space would perform.
  // (Each chunk packs its own words, across injection cycles like every
  // batch, so a chunk boundary can only end a word early. That is harmless:
  // batching is bitwise-identical to the scalar path wherever words break.)
  constexpr std::size_t kChunk = 256;
  ReduceState state;
  std::vector<faultsim::FaultSample> chunk;
  std::vector<SampleRecord> records;
  std::size_t done = 0;
  while (done < n) {
    if (config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    const std::size_t hi = std::min(done + kChunk, n);
    technique_->enumerate(done, hi, chunk);
    records.clear();
    records.resize(hi - done);
    evaluate_range(chunk, records, 0, hi - done, scratch, &observers);
    for (SampleRecord& rec : records) fold_record(state, std::move(rec));
    done = hi;
  }
  merge_observers(std::move(observers));
  SsfResult result = finish_reduce(std::move(state));
  result.fault_space_size = space;
  result.interrupted = done < n;
  return result;
}

Result<SsfResult> SsfEvaluator::run_exhaustive_journaled(
    const JournalOptions& options, std::uint64_t space_limit) const {
  if (options.dir.empty()) {
    return Status(ErrorCode::kInvalidArgument, "journal directory is empty");
  }
  if (options.shard_size == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "journal shard_size must be > 0");
  }
  const std::uint64_t space = technique_->space_size();
  if (space == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string("technique '") + technique_->name() +
                      "' has no bound fault space (call bind_space before "
                      "run_exhaustive_journaled)");
  }
  const std::size_t n = exhaustive_total(space, space_limit);

  JournalMeta meta;
  meta.fingerprint = options.fingerprint;
  meta.total_samples = n;
  meta.context = options.context;

  ReduceState state;
  std::vector<faultsim::FaultSample> chunk;
  std::size_t done = 0;  // records [0, done) restored from the journal
  std::uint64_t valid_bytes = 0;
  if (options.resume) {
    Result<JournalContents> loaded = read_journal(options.dir);
    if (!loaded.is_ok()) return loaded.status();
    JournalContents& j = loaded.value();
    valid_bytes = j.valid_bytes;
    if (j.meta.fingerprint != meta.fingerprint ||
        j.meta.total_samples != meta.total_samples) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal belongs to a different campaign (fingerprint or "
                    "sample count mismatch)");
    }
    done = std::min(j.records.size(), n);
    // Cross-check the journaled prefix against the re-enumerated stream —
    // the enumeration-index analogue of run_journaled's re-drawn-sample
    // check: a mismatch means the bound space (model grid, benchmark)
    // changed under the journal.
    for (std::size_t lo = 0; lo < done; lo += options.shard_size) {
      const std::size_t hi = std::min(lo + options.shard_size, done);
      technique_->enumerate(lo, hi, chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        if (!sample_matches(j.records[i].sample, chunk[i - lo])) {
          return Status(ErrorCode::kJournalCorrupt,
                        "journaled sample " + std::to_string(i) +
                            " does not match the enumerated fault space");
        }
        fold_record(state, std::move(j.records[i]));
      }
    }
  }

  JournalWriter writer;
  writer.set_metrics(config_.metrics);
  const Status open = options.resume && done > 0
                          ? writer.open_append(options.dir, valid_bytes)
                          : writer.open_fresh(options.dir, meta);
  if (!open.is_ok()) return open;
  if (config_.metrics != nullptr) {
    config_.metrics->add_counter("journal.resumed_records", done);
  }

  auto scratch = make_scratch_pool(n);
  WorkerObservers observers = make_observers(scratch.size());
  std::vector<SampleRecord> records;
  // Shards are enumerated, evaluated, committed, then folded — so an
  // interrupted sweep leaves exactly the journal a crash would, and the
  // running reduction only ever covers committed shards.
  for (std::size_t lo = done; lo < n; lo += options.shard_size) {
    if (config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    const std::size_t hi = std::min(lo + options.shard_size, n);
    technique_->enumerate(lo, hi, chunk);
    records.clear();
    records.resize(hi - lo);
    evaluate_range(chunk, records, 0, hi - lo, scratch, &observers);
    const Status appended = writer.append_shard(lo, records.data(), hi - lo);
    if (!appended.is_ok()) {
      if (appended.code() == ErrorCode::kStorageFull) {
        // See run_journaled: durable prefix, graceful resumable stop.
        if (config_.metrics != nullptr) {
          config_.metrics->add_counter("journal.storage_full_stops");
        }
        break;
      }
      return appended;
    }
    for (SampleRecord& rec : records) fold_record(state, std::move(rec));
    done = hi;
  }
  merge_observers(std::move(observers));
  SsfResult result = finish_reduce(std::move(state));
  result.fault_space_size = space;
  result.interrupted = done < n;
  return result;
}

}  // namespace fav::mc
