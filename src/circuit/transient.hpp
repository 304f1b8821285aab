// Transient analysis engine.
//
// The engine is incremental: init() establishes the initial condition (DC
// operating point by default), then step()/run_for() advance time.  External
// controllers — the mixed-signal digital domain, the IEEE 1149.4 test logic,
// calibration loops — interleave with the analog solution through
// StepObserver callbacks and by mutating device state (switch positions,
// source waveforms) between steps.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dc.hpp"
#include "circuit/newton.hpp"
#include "circuit/solution.hpp"
#include "exec/cancellation.hpp"

namespace rfabm::circuit {

/// Thrown when a transient solve is abandoned because its cancellation token
/// fired (watchdog deadline or campaign cancel) — distinct from
/// ConvergenceError: the circuit did nothing wrong, the supervisor pulled the
/// plug.  The hardened measurement pipeline maps it to kTimedOut/kFailed
/// instead of retrying.
class SolveAborted : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// Callback invoked after every accepted transient step.
class StepObserver {
  public:
    virtual ~StepObserver() = default;
    /// @p time is the end-of-step time and @p x the converged solution.
    virtual void on_step(double time, const Solution& x, Circuit& circuit) = 0;
};

/// Options for TransientEngine.
struct TransientOptions {
    double dt = 10e-12;                             ///< fixed base step (s)
    Integration method = Integration::kTrapezoidal;
    NewtonOptions newton{};
    double gmin = kGminDefault;
    bool start_from_dc = true;  ///< init() solves the operating point first
    int max_step_subdivisions = 8;  ///< halvings tried when a step fails
    /// Hard-cancellation token, polled before every base step: once it fires
    /// (watchdog deadline, campaign cancel) the engine throws SolveAborted
    /// instead of grinding on.  The default token never fires.  This is the
    /// supervision hook the exec-layer watchdog uses to reclaim a worker from
    /// a hung solve.
    rfabm::exec::CancellationToken cancel{};
    /// Progress heartbeat: incremented once per accepted (sub)step, and once
    /// per Newton iteration of init()'s operating-point solve, when set.  A
    /// watchdog distinguishes "slow but alive" from "hung" by watching it.
    std::atomic<std::uint64_t>* heartbeat = nullptr;
};

/// Fixed-step transient integrator with Newton iteration per step and
/// automatic step subdivision on Newton failure.
class TransientEngine {
  public:
    explicit TransientEngine(Circuit& circuit, TransientOptions options = {});

    /// Observers fire after every accepted (sub)step, in registration order.
    void add_observer(StepObserver* observer);
    void remove_observer(StepObserver* observer);

    /// Establish the initial condition (DC op or all-zero per options) and
    /// prime device companion histories.  Resets time to zero.
    void init();

    /// Establish an explicit initial condition.
    void init_from(const Solution& initial);

    /// Advance exactly one base step of options.dt.  Throws ConvergenceError
    /// if Newton fails even after max_step_subdivisions halvings.
    void step();

    /// Advance until time() >= tstop (steps of options.dt).
    void run_until(double tstop);

    /// Advance by @p duration seconds.
    void run_for(double duration) { run_until(time_ + duration); }

    double time() const { return time_; }
    const Solution& solution() const { return x_; }
    double v(NodeId node) const { return x_.v(node); }
    Circuit& circuit() { return circuit_; }
    const TransientOptions& options() const { return options_; }
    TransientOptions& options() { return options_; }
    std::size_t steps_taken() const { return steps_; }
    /// Newton iterations accumulated over the engine's lifetime (initial DC
    /// operating points plus every transient step, including subdivided
    /// retries).  The campaign layer aggregates this across workers as a
    /// cost metric; monotonic, never reset by init().
    std::uint64_t newton_iterations() const { return newton_iterations_; }
    bool initialized() const { return initialized_; }

  private:
    void advance(double dt, int depth);

    Circuit& circuit_;
    TransientOptions options_;
    std::vector<StepObserver*> observers_;
    Solution x_;
    MnaSystem scratch_;
    double time_ = 0.0;
    std::size_t steps_ = 0;
    std::uint64_t newton_iterations_ = 0;
    bool initialized_ = false;
    bool first_step_done_ = false;
};

/// Convenience recorder observer: samples chosen nodes every @p decimation
/// accepted steps.
class Recorder : public StepObserver {
  public:
    explicit Recorder(std::vector<NodeId> probes, std::size_t decimation = 1);

    void on_step(double time, const Solution& x, Circuit& circuit) override;

    const std::vector<double>& time() const { return time_; }
    /// Samples of probe @p index (construction order).
    const std::vector<double>& channel(std::size_t index) const { return channels_.at(index); }
    std::size_t num_channels() const { return channels_.size(); }
    void clear();

  private:
    std::vector<NodeId> probes_;
    std::size_t decimation_;
    std::size_t counter_ = 0;
    std::vector<double> time_;
    std::vector<std::vector<double>> channels_;
};

}  // namespace rfabm::circuit
