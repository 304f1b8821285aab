#include "circuit/mna.hpp"

#include <gtest/gtest.h>

namespace rfabm::circuit {
namespace {

TEST(Mna, ConductanceStampSkipsGround) {
    MnaSystem sys;
    sys.reset(3, 0);  // nodes 0(gnd), 1, 2 -> 2x2 matrix
    sys.add_conductance(1, kGround, 0.5);
    sys.add_conductance(1, 2, 0.25);
    EXPECT_DOUBLE_EQ(sys.matrix()(0, 0), 0.75);
    EXPECT_DOUBLE_EQ(sys.matrix()(0, 1), -0.25);
    EXPECT_DOUBLE_EQ(sys.matrix()(1, 0), -0.25);
    EXPECT_DOUBLE_EQ(sys.matrix()(1, 1), 0.25);
}

TEST(Mna, CurrentStampSign) {
    MnaSystem sys;
    sys.reset(3, 0);
    // 1 A from node 1 to node 2: leaves 1, enters 2.
    sys.add_current(1, 2, 1.0);
    EXPECT_DOUBLE_EQ(sys.rhs()[0], -1.0);
    EXPECT_DOUBLE_EQ(sys.rhs()[1], +1.0);
}

TEST(Mna, TransconductanceStamp) {
    MnaSystem sys;
    sys.reset(4, 0);
    // i = g*(v1 - v2) from node 3 to ground.
    sys.add_transconductance(3, kGround, 1, 2, 2.0);
    EXPECT_DOUBLE_EQ(sys.matrix()(2, 0), 2.0);
    EXPECT_DOUBLE_EQ(sys.matrix()(2, 1), -2.0);
}

TEST(Mna, BranchIndicesFollowNodes) {
    MnaSystem sys;
    sys.reset(3, 2);  // 2 nodes + 2 branches = dimension 4
    EXPECT_EQ(sys.dimension(), 4u);
    EXPECT_EQ(sys.branch_index(0), 2);
    EXPECT_EQ(sys.branch_index(1), 3);
}

TEST(Mna, VoltageSourceStampSolvesDivider) {
    // V=2V source at node 1, R1=1 between 1-2, R2=1 between 2-gnd.
    MnaSystem sys;
    sys.reset(3, 1);
    sys.add_conductance(1, 2, 1.0);
    sys.add_conductance(2, kGround, 1.0);
    sys.add_branch_to_node(1, 0, +1.0);
    sys.add_node_to_branch(0, 1, +1.0);
    sys.add_branch_rhs(0, 2.0);
    std::vector<double> x = sys.rhs();
    sys.matrix().solve(x);
    EXPECT_NEAR(x[0], 2.0, 1e-12);  // v(1)
    EXPECT_NEAR(x[1], 1.0, 1e-12);  // v(2)
    EXPECT_NEAR(x[2], -1.0, 1e-12); // source current (delivering => negative)
}

TEST(Mna, ResetClearsValues) {
    MnaSystem sys;
    sys.reset(3, 0);
    sys.add_conductance(1, 2, 1.0);
    sys.add_current(1, kGround, 1.0);
    sys.reset(3, 0);
    EXPECT_DOUBLE_EQ(sys.matrix()(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(sys.rhs()[0], 0.0);
}

TEST(Mna, NodeDiagonal) {
    MnaSystem sys;
    sys.reset(2, 0);
    sys.add_node_diagonal(1, 1e-3);
    sys.add_node_diagonal(kGround, 5.0);  // ignored
    EXPECT_DOUBLE_EQ(sys.matrix()(0, 0), 1e-3);
}

}  // namespace
}  // namespace rfabm::circuit
