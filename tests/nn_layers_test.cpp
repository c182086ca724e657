// Unit tests for layers, MLP, serialization, and a small end-to-end
// training sanity check.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/layers.h"
#include "nn/optim.h"

using namespace sleuth::nn;

TEST(Linear, ShapesAndForward)
{
    sleuth::util::Rng rng(1);
    Linear l(3, 2, rng);
    EXPECT_EQ(l.inFeatures(), 3u);
    EXPECT_EQ(l.outFeatures(), 2u);
    Var x = constant(Tensor(4, 3));
    Var y = l.forward(x);
    EXPECT_EQ(y->value().rows(), 4u);
    EXPECT_EQ(y->value().cols(), 2u);
    // Zero input -> output equals bias (initialized to zero).
    for (double v : y->value().data())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Mlp, ParameterCount)
{
    sleuth::util::Rng rng(2);
    Mlp mlp({4, 8, 8, 3}, Activation::Relu, rng);
    // (4*8+8) + (8*8+8) + (8*3+3) = 40 + 72 + 27
    EXPECT_EQ(mlp.parameterCount(), 139u);
    EXPECT_EQ(mlp.parameters().size(), 6u);
    EXPECT_EQ(mlp.inFeatures(), 4u);
    EXPECT_EQ(mlp.outFeatures(), 3u);
}

TEST(Mlp, LearnsXor)
{
    sleuth::util::Rng rng(3);
    Mlp mlp({2, 8, 1}, Activation::Tanh, rng);
    Tensor xs(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
    Tensor ys(4, 1, {0, 1, 1, 0});
    Var x = constant(xs);
    Var target = constant(ys);
    Adam opt(mlp.parameters(), 0.05);
    double last_loss = 1e9;
    for (int it = 0; it < 400; ++it) {
        Var pred = sigmoid(mlp.forward(x));
        Var diff = sub(pred, target);
        Var loss = meanAll(mul(diff, diff));
        backward(loss);
        opt.step();
        last_loss = loss->value().item();
    }
    EXPECT_LT(last_loss, 0.02);
}

TEST(Mlp, SerializationRoundTrip)
{
    sleuth::util::Rng rng(4);
    Mlp a({3, 5, 2}, Activation::Relu, rng);
    Mlp b({3, 5, 2}, Activation::Relu, rng);  // different random weights

    Var x = constant(Tensor(2, 3, {0.5, -1, 2, 0.1, 0.2, 0.3}));
    Tensor ya = a.forward(x)->value();
    Tensor yb_before = b.forward(x)->value();
    bool differed = false;
    for (size_t i = 0; i < ya.size(); ++i)
        differed |= std::abs(ya.data()[i] - yb_before.data()[i]) > 1e-9;
    EXPECT_TRUE(differed);

    sleuth::util::Json doc = parametersToJson(a.parameters());
    // Through text to prove on-disk fidelity.
    std::string err;
    sleuth::util::Json parsed =
        sleuth::util::Json::parse(doc.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    parametersFromJson(parsed, b.parameters());

    Tensor yb = b.forward(x)->value();
    for (size_t i = 0; i < ya.size(); ++i)
        EXPECT_NEAR(ya.data()[i], yb.data()[i], 1e-12);
}

TEST(Mlp, InferBitwiseEqualsForward)
{
    for (Activation act : {Activation::None, Activation::Relu,
                           Activation::Sigmoid, Activation::Tanh}) {
        sleuth::util::Rng rng(11);
        Mlp mlp({6, 16, 16, 3}, act, rng);
        // Nonzero biases, so the row broadcast is exercised too.
        for (const Var &p : mlp.parameters())
            for (double &v : p->mutableValue().data())
                v += rng.uniform(-0.5, 0.5);
        for (size_t rows : {size_t{1}, size_t{5}}) {
            Tensor x(rows, 6);
            for (double &v : x.data())
                v = rng.uniform(-2.0, 2.0);
            x.at(0, 2) = 0.0;  // a skipped zero in the first product
            Tensor graph = mlp.forward(constant(x))->value();
            Tensor direct = mlp.infer(x);
            ASSERT_TRUE(direct.sameShape(graph));
            EXPECT_EQ(std::memcmp(direct.data().data(),
                                  graph.data().data(),
                                  graph.size() * sizeof(double)),
                      0)
                << "activation " << static_cast<int>(act) << ", "
                << rows << " row(s)";
        }
    }
}

TEST(Optim, SgdConvergesOnQuadratic)
{
    Var w = param(Tensor(1, 1, {5.0}));
    Sgd opt({w}, 0.1);
    for (int i = 0; i < 100; ++i) {
        Var loss = mul(w, w);
        backward(loss);
        opt.step();
    }
    EXPECT_NEAR(w->value().item(), 0.0, 1e-6);
}

TEST(Optim, AdamConvergesOnQuadratic)
{
    Var w = param(Tensor(1, 2, {4.0, -3.0}));
    Adam opt({w}, 0.2);
    for (int i = 0; i < 200; ++i) {
        Var loss = sumAll(mul(w, w));
        backward(loss);
        opt.step();
    }
    EXPECT_NEAR(w->value().at(0, 0), 0.0, 1e-3);
    EXPECT_NEAR(w->value().at(0, 1), 0.0, 1e-3);
}

TEST(Optim, ClipGradNorm)
{
    Var w = param(Tensor(1, 2, {1.0, 1.0}));
    Var loss = sumAll(scale(w, 10.0));
    backward(loss);
    // Gradient is (10, 10): norm ~14.14.
    double norm = clipGradNorm({w}, 1.0);
    EXPECT_NEAR(norm, std::sqrt(200.0), 1e-9);
    double clipped = std::sqrt(w->grad().at(0, 0) * w->grad().at(0, 0) +
                               w->grad().at(0, 1) * w->grad().at(0, 1));
    EXPECT_NEAR(clipped, 1.0, 1e-9);
}

TEST(Optim, ClipBelowThresholdUntouched)
{
    Var w = param(Tensor(1, 1, {1.0}));
    Var loss = scale(w, 0.5);
    backward(loss);
    double norm = clipGradNorm({w}, 10.0);
    EXPECT_NEAR(norm, 0.5, 1e-12);
    EXPECT_NEAR(w->grad().item(), 0.5, 1e-12);
}

TEST(Layers, ActivationDispatch)
{
    Var x = constant(Tensor(1, 1, {-1.0}));
    EXPECT_DOUBLE_EQ(activate(x, Activation::None)->value().item(), -1.0);
    EXPECT_DOUBLE_EQ(activate(x, Activation::Relu)->value().item(), 0.0);
    EXPECT_NEAR(activate(x, Activation::Sigmoid)->value().item(),
                1.0 / (1.0 + std::exp(1.0)), 1e-12);
    EXPECT_NEAR(activate(x, Activation::Tanh)->value().item(),
                std::tanh(-1.0), 1e-12);
}
