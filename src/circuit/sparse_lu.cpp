#include "circuit/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rfabm::circuit {

namespace {

/// Magnitude under which a pivot counts as zero (as in lu_solve_in_place).
constexpr double kTinyPivot = 1e-300;
/// A pivot is acceptable when its magnitude is at least this share of the
/// largest magnitude left in its column.
constexpr double kPivotThreshold = 0.1;

/// A pivot of magnitude @p mag is rejected when it is numerically zero or
/// under the relative threshold of its column's largest magnitude.  Written
/// so a NaN pivot is accepted: poison must reach the solution, where Newton
/// reports it as non-finite, instead of posing as a singular matrix.
bool reject_pivot(double mag, double col_max) {
    return mag < kTinyPivot || mag < kPivotThreshold * col_max;
}

}  // namespace

void SparseLu::reset(std::size_t n) {
    if (n == n_) {
        std::fill(values_.begin(), values_.end(), 0.0);
        return;
    }
    n_ = n;
    slot_of_.assign(n * n, -1);
    slot_row_.clear();
    slot_col_.clear();
    values_.clear();
    live_.clear();
    dormant_.clear();
    steps_.clear();
    lu_.clear();
    for (std::size_t i = 0; i < n; ++i) grow(i, i);
    stale_ = true;
}

std::int32_t SparseLu::grow(std::size_t r, std::size_t c) {
    const auto s = static_cast<std::int32_t>(values_.size());
    slot_of_[r * n_ + c] = s;
    slot_row_.push_back(static_cast<std::int32_t>(r));
    slot_col_.push_back(static_cast<std::int32_t>(c));
    values_.push_back(0.0);
    stale_ = true;
    return s;
}

double SparseLu::operator()(std::size_t r, std::size_t c) const {
    const std::int32_t s = slot_of_[r * n_ + c];
    return s < 0 ? 0.0 : values_[static_cast<std::size_t>(s)];
}

DenseMatrix<double> SparseLu::to_dense() const {
    DenseMatrix<double> a(n_, n_);
    for (std::size_t s = 0; s < values_.size(); ++s) {
        a(static_cast<std::size_t>(slot_row_[s]), static_cast<std::size_t>(slot_col_[s])) =
            values_[s];
    }
    return a;
}

void SparseLu::analyse() {
    ++analyses_;
    const std::size_t n = n_;
    // Dense scratch, freed on return: values being eliminated, and the lu_
    // index of every structural position (slots keep theirs, fill-in is
    // numbered after them).  A slot that has never held a non-zero at an
    // analysis (a branch row's diagonal, the gm of a MOSFET that has not
    // yet conducted) stays out of the structure as dormant until it does.
    std::vector<double> a(n * n, 0.0);
    std::vector<std::int32_t> pos(n * n, -1);
    std::vector<std::int64_t> row_count(n, 0);
    std::vector<std::int64_t> col_count(n, 0);
    live_.resize(values_.size(), 0);
    for (std::size_t s = 0; s < values_.size(); ++s) {
        if (values_[s] != 0.0) live_[s] = 1;
        if (live_[s] == 0) continue;
        const auto r = static_cast<std::size_t>(slot_row_[s]);
        const auto c = static_cast<std::size_t>(slot_col_[s]);
        a[r * n + c] = values_[s];
        pos[r * n + c] = static_cast<std::int32_t>(s);
        ++row_count[r];
        ++col_count[c];
    }
    auto next = static_cast<std::int32_t>(values_.size());
    std::vector<std::int32_t> row_rank(n, -1);
    std::vector<std::int32_t> col_rank(n, -1);
    std::vector<std::size_t> pivot_row(n);
    std::vector<std::size_t> pivot_col(n);
    std::vector<double> col_max(n);

    for (std::size_t k = 0; k < n; ++k) {
        std::fill(col_max.begin(), col_max.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            if (row_rank[i] >= 0) continue;
            for (std::size_t j = 0; j < n; ++j) {
                if (pos[i * n + j] >= 0 && col_rank[j] < 0) {
                    col_max[j] = std::max(col_max[j], std::fabs(a[i * n + j]));
                }
            }
        }
        // Markowitz: the acceptable pivot with the fewest fill candidates;
        // ties go to the larger share of the column maximum, then to the
        // first in row-major order.
        std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
        double best_ratio = 0.0;
        std::size_t p = n;
        std::size_t q = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (row_rank[i] >= 0) continue;
            for (std::size_t j = 0; j < n; ++j) {
                if (pos[i * n + j] < 0 || col_rank[j] >= 0) continue;
                const double mag = std::fabs(a[i * n + j]);
                if (reject_pivot(mag, col_max[j])) continue;
                const std::int64_t cost = (row_count[i] - 1) * (col_count[j] - 1);
                const double ratio = mag / col_max[j];
                if (cost < best_cost || (cost == best_cost && ratio > best_ratio)) {
                    best_cost = cost;
                    best_ratio = ratio;
                    p = i;
                    q = j;
                }
            }
        }
        if (p == n) throw SingularMatrixError(k);
        pivot_row[k] = p;
        pivot_col[k] = q;
        row_rank[p] = static_cast<std::int32_t>(k);
        col_rank[q] = static_cast<std::int32_t>(k);

        // Eliminate with the arithmetic refactor() replays, so the values
        // it reproduces on these inputs are bit-identical.
        const double inv = 1.0 / a[p * n + q];
        for (std::size_t i = 0; i < n; ++i) {
            if (row_rank[i] >= 0 || pos[i * n + q] < 0) continue;
            const double m = a[i * n + q] * inv;
            a[i * n + q] = m;
            --row_count[i];
            for (std::size_t j = 0; j < n; ++j) {
                if (col_rank[j] >= 0 || pos[p * n + j] < 0) continue;
                if (pos[i * n + j] < 0) {
                    // Fill-in; on a dormant slot the slot itself is revived.
                    const std::int32_t slot = slot_of_[i * n + j];
                    pos[i * n + j] = slot >= 0 ? slot : next++;
                    ++row_count[i];
                    ++col_count[j];
                }
                a[i * n + j] -= m * a[p * n + j];
            }
        }
        for (std::size_t j = 0; j < n; ++j) {
            if (col_rank[j] < 0 && pos[p * n + j] >= 0) --col_count[j];
        }
    }

    // Compile the schedule: per step its pivot, the L column and U row (in
    // index order, as eliminated above) and the flattened update targets.
    steps_.assign(n, Step{});
    l_pos_.clear();
    l_row_.clear();
    u_pos_.clear();
    u_col_.clear();
    update_.clear();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t p = pivot_row[k];
        const std::size_t q = pivot_col[k];
        const auto rank = static_cast<std::int32_t>(k);
        const std::size_t l_begin = l_pos_.size();
        const std::size_t u_begin = u_pos_.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (row_rank[i] > rank && pos[i * n + q] >= 0) {
                l_pos_.push_back(pos[i * n + q]);
                l_row_.push_back(static_cast<std::int32_t>(i));
            }
        }
        for (std::size_t j = 0; j < n; ++j) {
            if (col_rank[j] > rank && pos[p * n + j] >= 0) {
                u_pos_.push_back(pos[p * n + j]);
                u_col_.push_back(static_cast<std::int32_t>(j));
            }
        }
        for (std::size_t l = l_begin; l < l_pos_.size(); ++l) {
            const auto i = static_cast<std::size_t>(l_row_[l]);
            for (std::size_t u = u_begin; u < u_pos_.size(); ++u) {
                update_.push_back(pos[i * n + static_cast<std::size_t>(u_col_[u])]);
            }
        }
        Step& st = steps_[k];
        st.pivot = pos[p * n + q];
        st.row = static_cast<std::int32_t>(p);
        st.col = static_cast<std::int32_t>(q);
        st.l_end = static_cast<std::uint32_t>(l_pos_.size());
        st.u_end = static_cast<std::uint32_t>(u_pos_.size());
    }
    dormant_.clear();
    for (std::size_t s = 0; s < values_.size(); ++s) {
        const std::size_t at = static_cast<std::size_t>(slot_row_[s]) * n +
                               static_cast<std::size_t>(slot_col_[s]);
        if (pos[at] < 0) dormant_.push_back(static_cast<std::int32_t>(s));
    }
    lu_.assign(static_cast<std::size_t>(next), 0.0);
    inv_pivot_.assign(n, 0.0);
    stale_ = false;
}

bool SparseLu::refactor(bool check) {
    std::copy(values_.begin(), values_.end(), lu_.begin());
    std::fill(lu_.begin() + static_cast<std::ptrdiff_t>(values_.size()), lu_.end(), 0.0);
    double* lu = lu_.data();
    const std::int32_t* l_pos = l_pos_.data();
    const std::int32_t* u_pos = u_pos_.data();
    const std::int32_t* update = update_.data();
    std::uint32_t l = 0;
    std::uint32_t u_begin = 0;
    for (std::size_t k = 0; k < steps_.size(); ++k) {
        const Step& st = steps_[k];
        const double pivot = lu[st.pivot];
        if (check) {
            double col_max = 0.0;
            for (std::uint32_t i = l; i < st.l_end; ++i) {
                col_max = std::max(col_max, std::fabs(lu[l_pos[i]]));
            }
            if (reject_pivot(std::fabs(pivot), col_max)) return false;
        }
        const double inv = 1.0 / pivot;
        inv_pivot_[k] = inv;
        const std::uint32_t u_count = st.u_end - u_begin;
        for (; l < st.l_end; ++l) {
            double& entry = lu[l_pos[l]];
            const double m = entry * inv;
            entry = m;
            for (std::uint32_t u = 0; u < u_count; ++u) {
                lu[update[u]] -= m * lu[u_pos[u_begin + u]];
            }
            update += u_count;
        }
        u_begin = st.u_end;
    }
    return true;
}

void SparseLu::solve(std::vector<double>& b) {
    if (b.size() != n_) throw std::invalid_argument("SparseLu::solve: shape mismatch");
    for (const std::int32_t s : dormant_) {
        if (values_[static_cast<std::size_t>(s)] != 0.0) stale_ = true;
    }
    if (stale_ || !refactor(/*check=*/true)) {
        analyse();
        refactor(/*check=*/false);
    }
    const double* lu = lu_.data();
    // Forward: L y = b in row space, y kept in work_.
    work_.assign(b.begin(), b.end());
    double* y = work_.data();
    std::uint32_t l = 0;
    for (const Step& st : steps_) {
        const double yp = y[st.row];
        for (; l < st.l_end; ++l) y[l_row_[l]] -= lu[l_pos_[l]] * yp;
    }
    // Backward: U x = y in column space, written straight into b.
    double* x = b.data();
    for (std::size_t k = steps_.size(); k-- > 0;) {
        const Step& st = steps_[k];
        double acc = y[st.row];
        for (std::uint32_t u = k == 0 ? 0 : steps_[k - 1].u_end; u < st.u_end; ++u) {
            acc -= lu[u_pos_[u]] * x[u_col_[u]];
        }
        x[st.col] = acc * inv_pivot_[k];
    }
}

}  // namespace rfabm::circuit
