// Sparse real matrix with a structure-reusing LU solver: the linear-algebra
// core of the DC and transient Newton iterations.
//
// A Newton loop re-assembles the same MNA pattern thousands of times with new
// values, so the expensive decisions are made once and replayed:
//
//   * Pattern.  Every position ever accumulated into (plus the full
//     diagonal) owns a slot in a flat value array.  add() is one index lookup
//     and one add; reset() zeroes the slots only.  A position seen for the
//     first time joins the pattern and marks the schedule stale, so MOSFET
//     frame swaps, switch toggles, gmin diagonals and devices added later are
//     all covered by the union.  A slot that has only ever held exact zeros
//     at analysis time (a voltage source's branch diagonal) stays out of the
//     elimination until it turns non-zero, which also marks it stale.
//   * Analysis.  On a stale pattern, a Markowitz ordering with threshold (0.1)
//     partial pivoting is chosen on the current values and compiled into a
//     fixed elimination schedule of slot indices (pivot, L column, U row and
//     the flattened rank-1 update targets, fill-in included).
//   * Refactor.  Every other solve replays that schedule numerically.  A
//     pivot failing the same relative threshold triggers one re-analysis on
//     the current values; a matrix with no acceptable pivot at all throws
//     SingularMatrixError, as lu_solve_in_place() does.
//
// State is per instance: the pivot order is a function of the values this
// matrix has seen, never of another solve on the same thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/matrix.hpp"

namespace rfabm::circuit {

class SparseLu {
  public:
    /// Shape the matrix n x n with every stored value zero.  The same
    /// dimension keeps the pattern and the schedule and clears only the
    /// pattern's slots; a new dimension starts over from the diagonal.
    void reset(std::size_t n);

    /// Accumulate @p v at (@p r, @p c).  A position outside the pattern
    /// joins it and marks the schedule stale.
    void add(std::size_t r, std::size_t c, double v) {
        std::int32_t s = slot_of_[r * n_ + c];
        if (s < 0) s = grow(r, c);
        values_[static_cast<std::size_t>(s)] += v;
    }

    /// Stored value at (@p r, @p c); zero outside the pattern.
    double operator()(std::size_t r, std::size_t c) const;

    /// Solve A x = b, replacing @p b by x.  The stored values are kept, so a
    /// solve can be repeated.  Throws SingularMatrixError when no pivot is
    /// acceptable and std::invalid_argument on a size mismatch.
    void solve(std::vector<double>& b);

    /// The stored values as a dense matrix (test oracle, diagnostics).
    DenseMatrix<double> to_dense() const;

    /// Positions in the pattern.
    std::size_t nonzeros() const { return values_.size(); }
    /// L + U entries of the current schedule (pivots and fill-in included,
    /// dormant slots not); 0 before the first solve.
    std::size_t factor_entries() const { return lu_.size() - dormant_.size(); }
    /// Multiply-add updates one refactorization performs.
    std::size_t update_ops() const { return update_.size(); }
    /// Symbolic analyses run so far (stale pattern or pivot breakdown).
    std::uint64_t analyses() const { return analyses_; }

  private:
    /// One elimination step; its L and U ranges end at these offsets and
    /// start where the previous step's end.  Its |L| x |U| update targets
    /// follow the previous step's in update_.
    struct Step {
        std::int32_t pivot = 0;   ///< lu_ index of the pivot
        std::int32_t row = 0;     ///< pivot row
        std::int32_t col = 0;     ///< pivot column
        std::uint32_t l_end = 0;  ///< into l_pos_ / l_row_
        std::uint32_t u_end = 0;  ///< into u_pos_ / u_col_
    };

    std::int32_t grow(std::size_t r, std::size_t c);
    /// Choose the pivot order on the current values and compile the
    /// schedule.  Throws SingularMatrixError when no pivot is acceptable.
    void analyse();
    /// Replay the schedule on the current values.  With @p check, returns
    /// false on the first pivot under the relative threshold.
    bool refactor(bool check);

    std::size_t n_ = 0;
    std::vector<std::int32_t> slot_of_;  ///< n x n position -> slot, -1 = absent
    std::vector<std::int32_t> slot_row_;
    std::vector<std::int32_t> slot_col_;
    std::vector<double> values_;         ///< one per slot
    /// Slot held a non-zero at some analysis; only live slots (and fill-in)
    /// enter the elimination structure.
    std::vector<char> live_;
    /// Slots outside the current structure: one turning non-zero makes the
    /// schedule stale, like a new position.
    std::vector<std::int32_t> dormant_;
    bool stale_ = true;

    // Compiled schedule.  lu_ holds the slots first (same indices), then the
    // fill-in positions.
    std::vector<Step> steps_;
    std::vector<std::int32_t> l_pos_;
    std::vector<std::int32_t> l_row_;
    std::vector<std::int32_t> u_pos_;
    std::vector<std::int32_t> u_col_;
    std::vector<std::int32_t> update_;
    std::vector<double> lu_;
    std::vector<double> inv_pivot_;  ///< 1 / pivot of each step
    std::vector<double> work_;
    std::uint64_t analyses_ = 0;
};

}  // namespace rfabm::circuit
