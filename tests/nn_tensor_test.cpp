// Unit tests for the dense tensor type.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

using sleuth::nn::Tensor;

TEST(Tensor, ConstructionAndAccess)
{
    Tensor t(2, 3);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.size(), 6u);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(t.at(i, j), 0.0);
    t.at(1, 2) = 5.0;
    EXPECT_DOUBLE_EQ(t.at(1, 2), 5.0);
}

TEST(Tensor, ExplicitData)
{
    Tensor t(2, 2, {1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(t.at(0, 0), 1);
    EXPECT_DOUBLE_EQ(t.at(0, 1), 2);
    EXPECT_DOUBLE_EQ(t.at(1, 0), 3);
    EXPECT_DOUBLE_EQ(t.at(1, 1), 4);
}

TEST(Tensor, ScalarAndColumn)
{
    EXPECT_DOUBLE_EQ(Tensor::scalar(7.5).item(), 7.5);
    Tensor c = Tensor::column({1, 2, 3});
    EXPECT_EQ(c.rows(), 3u);
    EXPECT_EQ(c.cols(), 1u);
    EXPECT_DOUBLE_EQ(c.at(2, 0), 3.0);
}

TEST(Tensor, FillAndFull)
{
    Tensor t = Tensor::full(2, 2, 3.0);
    EXPECT_DOUBLE_EQ(t.sum(), 12.0);
    t.fill(-1.0);
    EXPECT_DOUBLE_EQ(t.sum(), -4.0);
}

TEST(Tensor, AddAndScaleInPlace)
{
    Tensor a(1, 3, {1, 2, 3});
    Tensor b(1, 3, {10, 20, 30});
    a.addInPlace(b);
    EXPECT_DOUBLE_EQ(a.at(0, 2), 33.0);
    a.scaleInPlace(0.5);
    EXPECT_DOUBLE_EQ(a.at(0, 0), 5.5);
}

TEST(Tensor, Matmul)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor c = a.matmul(b);
    ASSERT_EQ(c.rows(), 2u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Tensor, MatmulIdentity)
{
    Tensor a(2, 2, {1, 2, 3, 4});
    Tensor id(2, 2, {1, 0, 0, 1});
    Tensor c = a.matmul(id);
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(c.at(i, j), a.at(i, j));
}

TEST(Tensor, MatmulTransposedAMatchesExplicitTranspose)
{
    sleuth::util::Rng rng(5);
    for (int it = 0; it < 10; ++it) {
        size_t k = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        size_t m = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        size_t n = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        Tensor a = Tensor::randn(k, m, 1.0, rng);
        Tensor b = Tensor::randn(k, n, 1.0, rng);
        Tensor fast = a.matmulTransposedA(b);
        Tensor ref = a.transposed().matmul(b);
        ASSERT_TRUE(fast.sameShape(ref));
        for (size_t i = 0; i < fast.rows(); ++i)
            for (size_t j = 0; j < fast.cols(); ++j)
                EXPECT_NEAR(fast.at(i, j), ref.at(i, j), 1e-12);
    }
}

TEST(Tensor, MatmulTransposedBMatchesExplicitTranspose)
{
    sleuth::util::Rng rng(6);
    for (int it = 0; it < 10; ++it) {
        size_t m = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        size_t n = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        size_t p = 1 + static_cast<size_t>(rng.uniformInt(0, 6));
        Tensor a = Tensor::randn(m, n, 1.0, rng);
        Tensor b = Tensor::randn(p, n, 1.0, rng);
        Tensor fast = a.matmulTransposedB(b);
        Tensor ref = a.matmul(b.transposed());
        ASSERT_TRUE(fast.sameShape(ref));
        for (size_t i = 0; i < fast.rows(); ++i)
            for (size_t j = 0; j < fast.cols(); ++j)
                EXPECT_NEAR(fast.at(i, j), ref.at(i, j), 1e-12);
    }
}

TEST(Tensor, AddRowAndActivationsInPlace)
{
    Tensor t(2, 3, {-1.0, 0.0, 2.0, 3.0, -0.5, 0.25});
    t.addRowInPlace(Tensor(1, 3, {1.0, -1.0, 0.5}));
    EXPECT_EQ(t.data(), (std::vector<double>{0.0, -1.0, 2.5, 4.0, -1.5,
                                             0.75}));
    Tensor r = t;
    r.reluInPlace();
    EXPECT_EQ(r.data(),
              (std::vector<double>{0.0, 0.0, 2.5, 4.0, 0.0, 0.75}));
    Tensor s = t;
    s.sigmoidInPlace();
    Tensor h = t;
    h.tanhInPlace();
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_DOUBLE_EQ(s.data()[i],
                         1.0 / (1.0 + std::exp(-t.data()[i])));
        EXPECT_DOUBLE_EQ(h.data()[i], std::tanh(t.data()[i]));
    }
}

TEST(Tensor, SliceCols)
{
    Tensor t(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor s = t.sliceCols(1, 3);
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.cols(), 2u);
    EXPECT_EQ(s.data(), (std::vector<double>{2, 3, 6, 7}));
}

TEST(Tensor, Transposed)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor t = a.transposed();
    ASSERT_EQ(t.rows(), 3u);
    ASSERT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(t.at(2, 0), 3.0);
}

TEST(Tensor, RandnStatistics)
{
    sleuth::util::Rng rng(1);
    Tensor t = Tensor::randn(100, 100, 0.5, rng);
    double mean = t.sum() / static_cast<double>(t.size());
    EXPECT_NEAR(mean, 0.0, 0.02);
    double sq = 0.0;
    for (double x : t.data())
        sq += (x - mean) * (x - mean);
    EXPECT_NEAR(std::sqrt(sq / static_cast<double>(t.size())), 0.5, 0.02);
}
