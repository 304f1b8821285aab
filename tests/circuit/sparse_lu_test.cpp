// Differential tests of the sparse Newton solver against the dense
// partial-pivoting LU oracle (lu_solve_in_place): random systems, singular
// systems, pivot breakdown, pattern growth, and whole circuits — every
// Newton system of a full-chip transient window and of the operating point
// of every netlist fixture.
#include "circuit/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/devices/defects.hpp"
#include "circuit/devices/mosfet.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist_parser.hpp"
#include "circuit/newton.hpp"
#include "core/chip.hpp"
#include "core/measurement.hpp"

namespace rfabm::circuit {
namespace {

/// Sparse and dense solutions must agree to this share of the dense
/// solution's largest magnitude (inf-norm relative error) on every system
/// that determines its solution that well.
constexpr double kAgreement = 1e-9;
/// A system whose componentwise (Skeel) condition number times machine
/// epsilon exceeds this does not determine x to kAgreement: any two stable
/// pivot orders may differ by ~cond * eps (the dense oracle itself is that
/// far off).  There both solvers are held to a backward error of kBackward
/// instead.  Skeel's measure ignores row and column scaling, which in MNA
/// spans twelve decades (gmin to a switch's on-conductance) without making
/// a system hard to solve.
constexpr double kIllConditioned = 1e-10;
constexpr double kBackward = 1e-12;

double relative_gap(const std::vector<double>& sparse, const std::vector<double>& dense) {
    double gap = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < dense.size(); ++i) {
        gap = std::max(gap, std::fabs(sparse[i] - dense[i]));
        scale = std::max(scale, std::fabs(dense[i]));
    }
    return scale > 0.0 ? gap / scale : gap;
}

/// Skeel's condition number || |A^-1| |A| |x| || / ||x|| (inf-norm).
double skeel_condition(const DenseMatrix<double>& a, const std::vector<double>& x) {
    const std::size_t n = a.rows();
    std::vector<double> ax(n, 0.0);  // |A| |x|
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) ax[i] += std::fabs(a(i, j)) * std::fabs(x[j]);
    }
    std::vector<double> out(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {  // column j of A^-1
        DenseMatrix<double> lu = a;
        std::vector<double> e(n, 0.0);
        e[j] = 1.0;
        lu_solve_in_place(lu, e);
        for (std::size_t i = 0; i < n; ++i) out[i] += std::fabs(e[i]) * ax[j];
    }
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        num = std::max(num, out[i]);
        den = std::max(den, std::fabs(x[i]));
    }
    return den > 0.0 ? num / den : 0.0;
}

/// Normwise backward error of @p x as a solution of a x = b.
double backward_error(const DenseMatrix<double>& a, const std::vector<double>& x,
                      const std::vector<double>& b) {
    double residual = 0.0;
    double a_norm = 0.0;
    double x_norm = 0.0;
    double b_norm = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double r = b[i];
        double row = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) {
            r -= a(i, j) * x[j];
            row += std::fabs(a(i, j));
        }
        residual = std::max(residual, std::fabs(r));
        a_norm = std::max(a_norm, row);
        x_norm = std::max(x_norm, std::fabs(x[i]));
        b_norm = std::max(b_norm, std::fabs(b[i]));
    }
    return residual / (a_norm * x_norm + b_norm);
}

/// Solve @p m with both solvers and check they agree (see kAgreement and
/// kIllConditioned); returns the relative gap of a well-conditioned system,
/// else 0.  Both must agree on singularity too: @p singular reports it.
double compare_solvers(SparseLu& m, const std::vector<double>& rhs, bool* singular = nullptr,
                       int* ill_conditioned = nullptr) {
    const DenseMatrix<double> a = m.to_dense();
    DenseMatrix<double> lu = a;
    std::vector<double> xd = rhs;
    std::vector<double> xs = rhs;
    bool dense_singular = false;
    bool sparse_singular = false;
    try {
        lu_solve_in_place(lu, xd);
    } catch (const SingularMatrixError&) {
        dense_singular = true;
    }
    try {
        m.solve(xs);
    } catch (const SingularMatrixError&) {
        sparse_singular = true;
    }
    EXPECT_EQ(sparse_singular, dense_singular);
    if (singular != nullptr) *singular = dense_singular;
    if (dense_singular || sparse_singular) return 0.0;
    if (skeel_condition(a, xd) * 2.2e-16 > kIllConditioned) {
        if (ill_conditioned != nullptr) ++*ill_conditioned;
        EXPECT_LE(backward_error(a, xs, rhs), kBackward);
        EXPECT_LE(backward_error(a, xd, rhs), kBackward);
        return 0.0;
    }
    return relative_gap(xs, xd);
}

/// MNA-shaped random system: a conductance network over @p nodes nodes
/// (every node tied to ground by 1 mS) plus @p branches
/// voltage-source rows, whose diagonal is structurally present but zero.
void stamp_random_mna(std::mt19937& rng, std::size_t nodes, std::size_t branches,
                      double density, MnaSystem& sys) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> decades(-4.0, 0.0);
    sys.reset(nodes + 1, branches);
    for (NodeId a = 1; a <= static_cast<NodeId>(nodes); ++a) {
        sys.add_conductance(a, kGround, 1e-3);
        for (NodeId b = a + 1; b <= static_cast<NodeId>(nodes); ++b) {
            if (unit(rng) < density) sys.add_conductance(a, b, std::pow(10.0, decades(rng)));
        }
        sys.add_current(a, kGround, unit(rng) - 0.5);
    }
    std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(nodes));
    for (std::size_t br = 0; br < branches; ++br) {
        const NodeId p = 1 + static_cast<NodeId>(br % nodes);
        NodeId n = pick(rng);
        if (n == p) n = kGround;
        sys.add_branch_to_node(p, br, +1.0);
        sys.add_branch_to_node(n, br, -1.0);
        sys.add_node_to_branch(br, p, +1.0);
        sys.add_node_to_branch(br, n, -1.0);
        sys.add_branch_to_branch(br, br, 0.0);
        sys.add_branch_rhs(br, unit(rng));
    }
}

TEST(SparseLu, RandomMnaSystemsMatchDenseOracle) {
    std::mt19937 rng(20050307);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t nodes = 4 + static_cast<std::size_t>(trial);
        const std::size_t branches = 1 + static_cast<std::size_t>(trial) % 5;
        MnaSystem sys;
        // Same pattern re-stamped with new values: the first solve analyses,
        // the others replay the schedule (or re-analyse on a weak pivot).
        std::mt19937 pattern_rng(static_cast<unsigned>(trial));
        for (int round = 0; round < 4; ++round) {
            std::mt19937 shape = pattern_rng;
            stamp_random_mna(shape, nodes, branches, 0.25, sys);
            // New values on the same positions.
            for (std::size_t r = 0; r < sys.dimension(); ++r) {
                for (std::size_t c = 0; c < sys.dimension(); ++c) {
                    if (sys.matrix()(r, c) != 0.0 && r < nodes && c < nodes) {
                        sys.matrix().add(r, c, 1e-9 * static_cast<double>(rng() % 7));
                    }
                }
            }
            int ill = 0;
            EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs(), nullptr, &ill), kAgreement)
                << "trial " << trial << " round " << round;
            EXPECT_EQ(ill, 0) << "trial " << trial << " round " << round;
        }
        EXPECT_EQ(sys.matrix().analyses(), 1u) << "trial " << trial;
    }
}

TEST(SparseLu, GeneralRandomSparseSystemsMatchDenseOracle) {
    // Unsymmetric pattern, zero diagonals allowed: pivots must come off the
    // diagonal where it is empty.
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial) % 30;
        SparseLu m;
        m.reset(n);
        // A random permutation guarantees structural regularity.
        std::vector<std::size_t> perm(n);
        for (std::size_t i = 0; i < n; ++i) perm[i] = i;
        std::shuffle(perm.begin(), perm.end(), rng);
        for (std::size_t i = 0; i < n; ++i) m.add(i, perm[i], 2.0 + unit(rng));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (unit(rng) < 0.15) m.add(i, j, val(rng));
            }
        }
        std::vector<double> b(n);
        for (double& v : b) v = val(rng);
        EXPECT_LE(compare_solvers(m, b), kAgreement) << "trial " << trial;
    }
}

TEST(SparseLu, SingularSystemsRaiseSingularMatrixError) {
    {
        // A node with no connection at all: an empty row and column.
        SparseLu m;
        m.reset(3);
        m.add(0, 0, 1.0);
        m.add(2, 2, 1.0);
        std::vector<double> b(3, 1.0);
        EXPECT_THROW(m.solve(b), SingularMatrixError);
    }
    {
        // Numerically singular: two identical rows eliminate to zero.
        SparseLu m;
        m.reset(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
        std::vector<double> b{1.0, 2.0};
        EXPECT_THROW(m.solve(b), SingularMatrixError);
        bool singular = false;
        compare_solvers(m, {1.0, 2.0}, &singular);
        EXPECT_TRUE(singular);
    }
    {
        // A voltage-source loop: two sources across the same node pair.
        MnaSystem sys;
        sys.reset(2, 2);
        for (std::size_t br = 0; br < 2; ++br) {
            sys.add_branch_to_node(1, br, +1.0);
            sys.add_node_to_branch(br, 1, +1.0);
            sys.add_branch_rhs(br, 1.0);
        }
        std::vector<double> b = sys.rhs();
        EXPECT_THROW(sys.matrix().solve(b), SingularMatrixError);
    }
}

TEST(SparseLu, SingularAfterSuccessfulSolveStillThrows) {
    // A schedule compiled on good values does not hide a later singular one.
    SparseLu m;
    m.reset(2);
    m.add(0, 0, 2.0);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    m.add(1, 1, 2.0);
    std::vector<double> b{1.0, 1.0};
    m.solve(b);
    m.reset(2);
    m.add(0, 0, 1.0);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    m.add(1, 1, 1.0);
    b = {1.0, 1.0};
    EXPECT_THROW(m.solve(b), SingularMatrixError);
}

TEST(SparseLu, PivotBreakdownTriggersExactlyOneReanalysis) {
    SparseLu m;
    auto stamp = [&m](double a00) {
        m.reset(2);
        m.add(0, 0, a00);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
    };
    stamp(4.0);
    std::vector<double> b{1.0, 3.0};
    m.solve(b);
    EXPECT_EQ(m.analyses(), 1u);
    EXPECT_NEAR(b[0], (1.0 - 3.0) / 3.0, 1e-15);

    // Same values again: the schedule is replayed, no analysis.
    stamp(4.0);
    b = {1.0, 3.0};
    m.solve(b);
    EXPECT_EQ(m.analyses(), 1u);

    // The (0, 0) pivot collapses under the relative threshold: exactly one
    // re-analysis on the current values, with the oracle's answer.
    stamp(1e-12);
    EXPECT_LE(compare_solvers(m, {1.0, 3.0}), kAgreement);
    EXPECT_EQ(m.analyses(), 2u);
    b = {1.0, 3.0};
    m.solve(b);
    EXPECT_EQ(m.analyses(), 2u);
}

TEST(SparseLu, ZeroSlotTurningNonZeroMarksTheScheduleStale) {
    // (0, 1) is stamped but holds an exact zero at the first analysis (a gm
    // that has not conducted yet): it stays out of the elimination until it
    // turns non-zero, then one analysis takes it in for good.
    SparseLu m;
    auto stamp = [&m](double a01) {
        m.reset(3);
        m.add(0, 0, 2.0);
        m.add(0, 1, a01);
        m.add(1, 1, 3.0);
        m.add(1, 2, -1.0);
        m.add(2, 2, 4.0);
    };
    stamp(0.0);
    EXPECT_LE(compare_solvers(m, {1.0, 2.0, 3.0}), kAgreement);
    EXPECT_EQ(m.analyses(), 1u);
    EXPECT_EQ(m.factor_entries(), 4u);
    stamp(0.5);
    EXPECT_LE(compare_solvers(m, {1.0, 2.0, 3.0}), kAgreement);
    EXPECT_EQ(m.analyses(), 2u);
    EXPECT_EQ(m.factor_entries(), 5u);
    stamp(0.0);
    EXPECT_LE(compare_solvers(m, {1.0, 2.0, 3.0}), kAgreement);
    stamp(0.5);
    EXPECT_LE(compare_solvers(m, {1.0, 2.0, 3.0}), kAgreement);
    EXPECT_EQ(m.analyses(), 2u);
}

TEST(SparseLu, ResetClearsOnlyValuesAndNewDimensionStartsOver) {
    SparseLu m;
    m.reset(3);
    EXPECT_EQ(m.nonzeros(), 3u);  // the diagonal
    m.add(0, 2, 5.0);
    EXPECT_EQ(m.nonzeros(), 4u);
    m.reset(3);
    EXPECT_EQ(m.nonzeros(), 4u);
    EXPECT_DOUBLE_EQ(m(0, 2), 0.0);
    m.reset(2);
    EXPECT_EQ(m.nonzeros(), 2u);
    std::vector<double> b(3, 0.0);
    EXPECT_THROW(m.solve(b), std::invalid_argument);
}

/// Stamp @p ckt at iterate @p x (DC) into @p sys.
void stamp_dc(Circuit& ckt, const Solution& x, MnaSystem& sys, double extra_gmin = 0.0) {
    ckt.finalize();
    StampContext ctx;
    ctx.mode = AnalysisMode::kDc;
    ctx.x = &x;
    sys.reset(ckt.num_nodes(), ckt.num_branches());
    for (const auto& dev : ckt.devices()) dev->stamp(sys, ctx);
    for (NodeId n = 1; n < static_cast<NodeId>(ckt.num_nodes()); ++n) {
        sys.add_node_diagonal(n, extra_gmin);
    }
}

TEST(SparseLu, MosfetFrameSwapAndFaultClearStayCovered) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    const NodeId g = ckt.node("g");
    ckt.add<VSource>("VG", g, kGround, Waveform::dc(1.5));
    ckt.add<Resistor>("RA", a, kGround, 1e3);
    ckt.add<Resistor>("RB", b, kGround, 2e3);
    auto& m = ckt.add<Mosfet>("M", a, g, b);
    m.set_fault(MosfetFault::kStuckOff);
    ckt.finalize();
    MnaSystem sys;
    Solution x(ckt.num_nodes(), ckt.num_branches());
    x.raw()[static_cast<std::size_t>(a) - 1] = 1.0;  // v(a) > v(b): drain is a
    stamp_dc(ckt, x, sys);
    EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    const std::size_t stuck_nnz = sys.matrix().nonzeros();
    EXPECT_EQ(sys.matrix().analyses(), 1u);

    // Clearing the channel defect brings the gm coupling to the gate: new
    // positions, one analysis.
    m.set_fault(MosfetFault::kNone);
    stamp_dc(ckt, x, sys);
    EXPECT_EQ(sys.matrix().nonzeros(), stuck_nnz + 2);
    EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    EXPECT_EQ(sys.matrix().analyses(), 2u);
    const std::size_t nnz = sys.matrix().nonzeros();

    // v(b) > v(a): the effective drain and source swap.  The stamps flip
    // between the two frames' rows, but for a three-terminal device both
    // frames cover the same positions, so the pattern holds; the flipped
    // values may at most cost one re-analysis on a weak pivot.
    for (int swap = 0; swap < 4; ++swap) {
        const bool flipped = swap % 2 == 0;
        x.raw()[static_cast<std::size_t>(a) - 1] = flipped ? 0.0 : 1.0;
        x.raw()[static_cast<std::size_t>(b) - 1] = flipped ? 1.0 : 0.0;
        stamp_dc(ckt, x, sys);
        EXPECT_EQ(sys.matrix().nonzeros(), nnz);
        EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    }
    EXPECT_LE(sys.matrix().analyses(), 3u);
}

TEST(SparseLu, GminDiagonalsAreAlreadyInThePattern) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(1.0));
    ckt.add<Capacitor>("C", in, out, 1e-12);  // out floats at DC but for gmin
    ckt.add<Resistor>("R", out, ckt.node("x"), 1e3);
    ckt.finalize();
    MnaSystem sys;
    Solution x(ckt.num_nodes(), ckt.num_branches());
    stamp_dc(ckt, x, sys, 1e-3);
    EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    const std::size_t nnz = sys.matrix().nonzeros();
    for (double gmin : {1e-4, 1e-6, 1e-9}) {
        stamp_dc(ckt, x, sys, gmin);
        EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    }
    EXPECT_EQ(sys.matrix().nonzeros(), nnz);
    EXPECT_EQ(sys.matrix().analyses(), 1u);
}

TEST(SparseLu, FaultDeviceAddedAfterFirstSolveJoinsThePattern) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId mid = ckt.node("mid");
    const NodeId far = ckt.node("far");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(2.0));
    ckt.add<Resistor>("R1", in, mid, 1e3);
    ckt.add<Resistor>("R2", mid, kGround, 1e3);
    ckt.add<Resistor>("R3", far, kGround, 1e3);
    ckt.finalize();
    MnaSystem sys;
    Solution x(ckt.num_nodes(), ckt.num_branches());
    stamp_dc(ckt, x, sys);
    EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    const std::size_t nnz = sys.matrix().nonzeros();

    // A bridge defect between two nodes never coupled before.
    ckt.add<BridgeDefect>("BR", mid, far, 100.0).arm();
    stamp_dc(ckt, x, sys);
    EXPECT_EQ(sys.matrix().nonzeros(), nnz + 2);
    std::vector<double> v = sys.rhs();
    EXPECT_LE(compare_solvers(sys.matrix(), sys.rhs()), kAgreement);
    sys.matrix().solve(v);
    EXPECT_GT(v[static_cast<std::size_t>(far) - 1], 0.1);  // the bridge conducts
    EXPECT_EQ(sys.matrix().analyses(), 2u);
}

struct DcNewtonCheck {
    double worst_gap = 0.0;        ///< over the well-conditioned systems
    bool singular = false;         ///< both solvers found a system singular
    bool converged = false;
    bool final_ill_conditioned = false;  ///< the operating point's own system
};

/// Drive the plain DC Newton of @p ckt one iteration at a time, checking the
/// sparse solve of every system against the oracle.
DcNewtonCheck check_dc_newton(Circuit& ckt) {
    ckt.finalize();
    MnaSystem scratch;
    StampContext ctx;
    ctx.mode = AnalysisMode::kDc;
    NewtonOptions one;
    one.max_iterations = 1;
    Solution x(ckt.num_nodes(), ckt.num_branches());
    DcNewtonCheck check;
    for (int iter = 0; iter < 100; ++iter) {
        const NewtonOutcome out = newton_iterate(ckt, ctx, x, one, scratch);
        // newton_iterate kept the system it just solved: re-solve it both ways.
        int ill = 0;
        const double gap =
            compare_solvers(scratch.matrix(), scratch.rhs(), &check.singular, &ill);
        check.worst_gap = std::max(check.worst_gap, gap);
        check.final_ill_conditioned = ill > 0;
        check.converged = out.converged;
        if (out.singular || check.singular || out.converged || out.non_finite) {
            EXPECT_EQ(out.singular, check.singular);
            break;
        }
    }
    return check;
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SparseLu, EveryNetlistFixtureOperatingPointMatchesDenseOracle) {
    std::vector<std::pair<std::string, std::string>> decks;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(RFABM_TESTS_DIR)) {
        if (entry.path().extension() == ".cir") {
            decks.emplace_back(entry.path().filename().string(), read_file(entry.path()));
        }
    }
    // The deck embedded in the netlist-simulation example.
    const std::string example = read_file(RFABM_EXAMPLE_NETLIST);
    const auto open = example.find("R\"(");
    const auto close = example.find(")\"", open);
    ASSERT_NE(open, std::string::npos);
    ASSERT_NE(close, std::string::npos);
    decks.emplace_back("netlist_simulation.cpp", example.substr(open + 3, close - open - 3));
    std::sort(decks.begin(), decks.end());
    ASSERT_GE(decks.size(), 10u);

    int converged = 0;
    std::vector<std::string> ill_conditioned;
    for (const auto& [name, text] : decks) {
        Circuit ckt;
        try {
            parse_netlist(ckt, text, name);
        } catch (const std::exception&) {
            continue;  // a deliberately malformed lint fixture
        }
        const DcNewtonCheck check = check_dc_newton(ckt);
        EXPECT_LE(check.worst_gap, kAgreement) << name;
        if (check.converged) ++converged;
        if (check.final_ill_conditioned) ill_conditioned.push_back(name);
    }
    EXPECT_GE(converged, 5);
    // Cold-start iterates with every MOSFET off lean on gmin and may be
    // ill-conditioned; of the operating points themselves only the
    // floating-node fixture's is (its node is tied down by gmin alone).
    EXPECT_EQ(ill_conditioned, std::vector<std::string>{"floating_node.cir"});
}

TEST(SparseLu, FullChipTransientWindowMatchesDenseOracle) {
    // Every Newton system of a 2 ns window of a 0 dBm, 1.5 GHz read on the
    // full chip, driven one iteration at a time exactly as the transient
    // engine would.
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    core::MeasurementController ctl(chip);
    ctl.open_session();
    chip.set_rf(0.0, 1.5e9);
    TransientEngine& engine = chip.engine();
    engine.run_for(5e-9);

    Circuit& ckt = engine.circuit();
    MnaSystem scratch;
    Solution x = engine.solution();
    double time = engine.time();
    NewtonOptions one = engine.options().newton;
    one.max_iterations = 1;
    const double dt = engine.options().dt;
    double worst = 0.0;
    int systems = 0;
    int ill = 0;
    for (int step = 0; step < static_cast<int>(2e-9 / dt); ++step) {
        StampContext ctx;
        ctx.mode = AnalysisMode::kTransient;
        ctx.time = time + dt;
        ctx.dt = dt;
        ctx.method = engine.options().method;
        ctx.gmin = engine.options().gmin;
        Solution candidate = x;
        bool converged = false;
        for (int iter = 0; iter < engine.options().newton.max_iterations && !converged; ++iter) {
            const NewtonOutcome out = newton_iterate(ckt, ctx, candidate, one, scratch);
            ASSERT_FALSE(out.singular);
            ASSERT_FALSE(out.non_finite);
            const double gap = compare_solvers(scratch.matrix(), scratch.rhs(), nullptr, &ill);
            worst = std::max(worst, gap);
            ++systems;
            converged = out.converged;
        }
        ASSERT_TRUE(converged) << "step " << step;
        for (const auto& dev : ckt.devices()) dev->accept_step(candidate, ctx);
        x = candidate;
        time = ctx.time;
    }
    EXPECT_GT(systems, 100);
    EXPECT_EQ(ill, 0);
    EXPECT_LE(worst, kAgreement);
    EXPECT_EQ(scratch.dimension(), 41u);
}

}  // namespace
}  // namespace rfabm::circuit
