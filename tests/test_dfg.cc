/**
 * @file
 * VUDFG structural tests: the validator must catch the malformed
 * graphs the compiler could otherwise hand the simulator (unbound
 * streams, bindings to unknown streams, mismatched binding levels,
 * vectorized outer counters, memory engines without address sources).
 */

#include <gtest/gtest.h>

#include "dfg/vudfg.h"
#include "support/logging.h"

namespace sara {
namespace {

using namespace dfg;

VuId
makeUnit(Vudfg &g, int chain = 1)
{
    VuId id = g.addUnit(VuKind::Compute, "u");
    for (int i = 0; i < chain; ++i) {
        Counter c;
        c.max = 4;
        g.unit(id).counters.push_back(c);
    }
    return id;
}

/** A minimal well-formed two-unit graph passes validation. */
TEST(Vudfg, ValidGraphPasses)
{
    Vudfg g;
    VuId a = makeUnit(g), b = makeUnit(g);
    StreamId s = g.addStream(StreamKind::Data, a, b, "s");
    g.stream(s).pushLevel = 1;
    g.stream(s).popLevel = 1;
    LOp c;
    c.kind = ir::OpKind::Const;
    c.cval = 1.0;
    g.unit(a).lops.push_back(c);
    g.unit(a).outputs.push_back({s, 1, 0});
    g.unit(b).inputs.push_back({s, InputRole::Operand, 1, true});
    EXPECT_NO_THROW(g.validate());
    EXPECT_NE(g.summary().find("2 units"), std::string::npos);
    EXPECT_FALSE(g.str().empty());
}

TEST(Vudfg, UnboundStreamFails)
{
    Vudfg g;
    VuId a = makeUnit(g), b = makeUnit(g);
    g.addStream(StreamKind::Token, a, b, "dangling");
    EXPECT_THROW(g.validate(), PanicError);
}

TEST(Vudfg, BindingLevelMismatchFails)
{
    Vudfg g;
    VuId a = makeUnit(g), b = makeUnit(g);
    StreamId s = g.addStream(StreamKind::Token, a, b, "s");
    g.stream(s).pushLevel = 1;
    g.stream(s).popLevel = 1;
    g.unit(a).outputs.push_back({s, 1, -1});
    g.unit(b).inputs.push_back({s, InputRole::Gate, 0, true}); // != 1.
    EXPECT_THROW(g.validate(), PanicError);
}

TEST(Vudfg, OuterCounterVectorizationFails)
{
    Vudfg g;
    VuId a = makeUnit(g, 2);
    g.unit(a).counters[0].vec = 16; // Only innermost may vectorize.
    EXPECT_THROW(g.validate(), PanicError);
}

TEST(Vudfg, ForwardLopOperandFails)
{
    Vudfg g;
    VuId a = makeUnit(g);
    LOp add;
    add.kind = ir::OpKind::Add;
    add.a = 0; // Self-reference (index not yet defined).
    add.b = 0;
    g.unit(a).lops.push_back(add);
    EXPECT_THROW(g.validate(), PanicError);
}

/** A binding naming a stream id past the end panics instead of
 *  reading out of bounds. */
TEST(Vudfg, UnknownStreamBindingFails)
{
    Vudfg g;
    VuId a = makeUnit(g);
    g.unit(a).inputs.push_back(
        {StreamId(g.numStreams()), InputRole::Operand, 1, true});
    EXPECT_THROW(g.validate(), PanicError);

    Vudfg h;
    VuId b = makeUnit(h);
    h.unit(b).outputs.push_back({StreamId(h.numStreams()), 1, -1});
    EXPECT_THROW(h.validate(), PanicError);
}

TEST(Vudfg, MemPortNeedsAddressAndVmu)
{
    Vudfg g;
    VuId port = g.addUnit(VuKind::MemPort, "p");
    g.unit(port).tensor = ir::TensorId(0);
    EXPECT_THROW(g.validate(), PanicError);
}

TEST(Counter, ConstTrips)
{
    Counter c;
    c.min = 0;
    c.max = 10;
    c.step = 3;
    EXPECT_EQ(c.constTrips().value(), 4);
    c.isWhile = true;
    EXPECT_FALSE(c.constTrips().has_value());
    c.isWhile = false;
    c.maxInput = 0; // Dynamic bound.
    EXPECT_FALSE(c.constTrips().has_value());
}

} // namespace
} // namespace sara
