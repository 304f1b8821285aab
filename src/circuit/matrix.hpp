// Dense matrix with partial-pivoting LU.  It solves the complex AC
// small-signal systems and serves as the reference oracle for the sparse
// solver (sparse_lu.hpp) that the real-valued Newton iterations use.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace rfabm::circuit {

/// Dense square-capable matrix of element type T (double or complex<double>).
template <typename T>
class DenseMatrix {
  public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    const T& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    /// Reset every element to zero, keeping the shape.
    void clear() { std::fill(data_.begin(), data_.end(), T{}); }

    /// Resize (destructive) and zero.
    void resize(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, T{});
    }

    /// Shape n x n and zero, reusing the storage when the shape is kept.
    void reset(std::size_t n) {
        if (rows_ == n && cols_ == n) {
            clear();
        } else {
            resize(n, n);
        }
    }

    /// Accumulate @p v at (@p r, @p c).
    void add(std::size_t r, std::size_t c, T v) { (*this)(r, c) += v; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

/// Thrown when LU factorization meets a numerically singular pivot.
class SingularMatrixError : public std::runtime_error {
  public:
    explicit SingularMatrixError(std::size_t column)
        : std::runtime_error("singular matrix at column " + std::to_string(column)),
          column_(column) {}
    std::size_t column() const { return column_; }

  private:
    std::size_t column_;
};

namespace detail {
inline double magnitude(double v) { return std::fabs(v); }
inline double magnitude(const std::complex<double>& v) { return std::abs(v); }
}  // namespace detail

/// In-place LU factorization with partial pivoting followed by solve.
/// @p a is destroyed; @p b is replaced by the solution.  Throws
/// SingularMatrixError when a pivot underflows.
template <typename T>
void lu_solve_in_place(DenseMatrix<T>& a, std::vector<T>& b) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n) {
        throw std::invalid_argument("lu_solve_in_place: shape mismatch");
    }
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t piv = col;
        double best = detail::magnitude(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double m = detail::magnitude(a(r, col));
            if (m > best) {
                best = m;
                piv = r;
            }
        }
        if (best < 1e-300) throw SingularMatrixError(col);
        if (piv != col) {
            for (std::size_t c = col; c < n; ++c) std::swap(a(piv, c), a(col, c));
            std::swap(b[piv], b[col]);
        }
        const T inv_pivot = T{1} / a(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const T factor = a(r, col) * inv_pivot;
            if (factor == T{}) continue;
            a(r, col) = T{};
            for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
        T acc = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * b[c];
        b[ri] = acc / a(ri, ri);
    }
}

}  // namespace rfabm::circuit
