#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>

namespace rfabm::circuit {

TransientEngine::TransientEngine(Circuit& circuit, TransientOptions options)
    : circuit_(circuit), options_(options) {
    if (options_.dt <= 0.0) throw std::invalid_argument("TransientEngine: dt must be positive");
}

void TransientEngine::add_observer(StepObserver* observer) { observers_.push_back(observer); }

void TransientEngine::remove_observer(StepObserver* observer) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                     observers_.end());
}

void TransientEngine::init() {
    circuit_.finalize();
    if (options_.start_from_dc) {
        DcOptions dc_opts;
        dc_opts.newton = options_.newton;
        dc_opts.newton.heartbeat = options_.heartbeat;
        dc_opts.gmin = options_.gmin;
        const DcResult dc = solve_dc(circuit_, dc_opts);
        newton_iterations_ += static_cast<std::uint64_t>(dc.iterations);
        x_ = dc.solution;
    } else {
        x_ = Solution(circuit_.num_nodes(), circuit_.num_branches());
    }
    for (const auto& dev : circuit_.devices()) dev->init_state(x_);
    time_ = 0.0;
    steps_ = 0;
    first_step_done_ = false;
    initialized_ = true;
}

void TransientEngine::init_from(const Solution& initial) {
    circuit_.finalize();
    x_ = initial;
    for (const auto& dev : circuit_.devices()) dev->init_state(x_);
    time_ = 0.0;
    steps_ = 0;
    first_step_done_ = false;
    initialized_ = true;
}

void TransientEngine::advance(double dt, int depth) {
    StampContext ctx;
    ctx.mode = AnalysisMode::kTransient;
    ctx.time = time_ + dt;
    ctx.dt = dt;
    // Backward Euler for the very first step (no stored device currents yet);
    // the configured method afterwards.
    ctx.method = first_step_done_ ? options_.method : Integration::kBackwardEuler;
    ctx.gmin = options_.gmin;

    Solution candidate = x_;  // warm start from the current state
    const NewtonOutcome out = newton_iterate(circuit_, ctx, candidate, options_.newton, scratch_);
    newton_iterations_ += static_cast<std::uint64_t>(out.iterations);
    if (!out.converged) {
        if (out.non_finite) {
            // NaN/Inf is arithmetic poison, not stiffness: halving the step
            // re-runs the same blow-up, so raise a located error right away.
            ConvergenceDiagnostics diag;
            diag.non_finite = true;
            diag.total_iterations = out.iterations;
            diag.last_attempt_iterations = out.iterations;
            diag.worst_unknown = unknown_name(circuit_, out.worst_unknown);
            throw ConvergenceError(diag);
        }
        if (depth >= options_.max_step_subdivisions) {
            throw ConvergenceError("transient step did not converge at t=" +
                                   std::to_string(ctx.time));
        }
        advance(dt * 0.5, depth + 1);
        advance(dt * 0.5, depth + 1);
        return;
    }
    for (const auto& dev : circuit_.devices()) dev->accept_step(candidate, ctx);
    x_ = std::move(candidate);
    time_ = ctx.time;
    first_step_done_ = true;
    ++steps_;
    if (options_.heartbeat != nullptr) {
        options_.heartbeat->fetch_add(1, std::memory_order_relaxed);
    }
    for (StepObserver* obs : observers_) obs->on_step(time_, x_, circuit_);
}

void TransientEngine::step() {
    if (!initialized_) init();
    if (options_.cancel.stop_requested()) {
        throw SolveAborted(std::string("transient solve aborted at t=") +
                           std::to_string(time_) + ": " + options_.cancel.stop_reason());
    }
    advance(options_.dt, 0);
}

void TransientEngine::run_until(double tstop) {
    if (!initialized_) init();
    // Half-step tolerance avoids an extra step from floating-point drift.
    while (time_ < tstop - options_.dt * 0.5) step();
}

Recorder::Recorder(std::vector<NodeId> probes, std::size_t decimation)
    : probes_(std::move(probes)), decimation_(decimation == 0 ? 1 : decimation),
      channels_(probes_.size()) {}

void Recorder::on_step(double time, const Solution& x, Circuit&) {
    if (counter_++ % decimation_ != 0) return;
    time_.push_back(time);
    for (std::size_t i = 0; i < probes_.size(); ++i) channels_[i].push_back(x.v(probes_[i]));
}

void Recorder::clear() {
    counter_ = 0;
    time_.clear();
    for (auto& c : channels_) c.clear();
}

}  // namespace rfabm::circuit
