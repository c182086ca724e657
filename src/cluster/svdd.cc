#include "svdd.h"

#include <cmath>

#include "nn/optim.h"
#include "util/stats.h"

namespace sleuth::cluster {

namespace {

nn::Tensor
rowsToTensor(const std::vector<std::vector<double>> &xs)
{
    SLEUTH_ASSERT(!xs.empty());
    size_t cols = xs[0].size();
    nn::Tensor t(xs.size(), cols);
    for (size_t i = 0; i < xs.size(); ++i) {
        SLEUTH_ASSERT(xs[i].size() == cols, "ragged input rows");
        for (size_t j = 0; j < cols; ++j)
            t.at(i, j) = xs[i][j];
    }
    return t;
}

} // namespace

DeepSvdd::DeepSvdd(size_t input_dim, size_t embed_dim, util::Rng &rng)
    : encoder_({input_dim, 2 * embed_dim, embed_dim},
               nn::Activation::Tanh, rng)
{
}

nn::Var
DeepSvdd::encode(const nn::Var &x) const
{
    return encoder_.forward(x);
}

double
DeepSvdd::train(const std::vector<std::vector<double>> &xs, int epochs,
                double lr)
{
    nn::Var input = nn::constant(rowsToTensor(xs));
    size_t embed_dim = encoder_.outFeatures();

    // Fix the hypersphere center at the mean initial embedding (the
    // Deep SVDD recipe; a trainable center admits the trivial collapse).
    nn::Tensor first = encoder_.infer(input->value());
    center_.assign(embed_dim, 0.0);
    for (size_t i = 0; i < first.rows(); ++i)
        for (size_t j = 0; j < embed_dim; ++j)
            center_[j] += first.at(i, j);
    for (double &c : center_)
        c /= static_cast<double>(first.rows());

    nn::Tensor center_row(1, embed_dim);
    for (size_t j = 0; j < embed_dim; ++j)
        center_row.at(0, j) = -center_[j];
    nn::Var neg_center = nn::constant(center_row);

    nn::Adam opt(encoder_.parameters(), lr);
    double objective = 0.0;
    for (int e = 0; e < epochs; ++e) {
        nn::Var diff = nn::addRow(encode(input), neg_center);
        nn::Var loss = nn::meanAll(nn::mul(diff, diff));
        nn::backward(loss);
        opt.step();
        objective = loss->value().item();
    }

    // Radius at the 95th percentile of training distances.
    std::vector<double> dists;
    dists.reserve(xs.size());
    for (const auto &x : xs)
        dists.push_back(std::sqrt(squaredDistanceToCenter(x)));
    radius_ = util::percentile(dists, 95.0);
    return objective;
}

std::vector<double>
DeepSvdd::embedVector(const std::vector<double> &x) const
{
    nn::Tensor t(1, x.size());
    for (size_t j = 0; j < x.size(); ++j)
        t.at(0, j) = x[j];
    return encoder_.infer(t).data();
}

double
DeepSvdd::squaredDistanceToCenter(const std::vector<double> &x) const
{
    SLEUTH_ASSERT(!center_.empty(), "svdd not trained");
    std::vector<double> e = embedVector(x);
    double sq = 0.0;
    for (size_t j = 0; j < e.size(); ++j)
        sq += (e[j] - center_[j]) * (e[j] - center_[j]);
    return sq;
}

double
DeepSvdd::embeddingDistance(const std::vector<double> &a,
                            const std::vector<double> &b) const
{
    std::vector<double> ea = embedVector(a);
    std::vector<double> eb = embedVector(b);
    double sq = 0.0;
    for (size_t j = 0; j < ea.size(); ++j)
        sq += (ea[j] - eb[j]) * (ea[j] - eb[j]);
    return std::sqrt(sq);
}

namespace {

/** Geometric-median scan shared by the matrix and oracle overloads. */
template <typename DistAt>
std::vector<size_t>
selectRepresentativesImpl(const std::vector<int> &labels,
                          int num_clusters, DistAt &&dist)
{
    std::vector<size_t> reps;
    for (int c = 0; c < num_clusters; ++c) {
        std::vector<size_t> members;
        for (size_t i = 0; i < labels.size(); ++i)
            if (labels[i] == c)
                members.push_back(i);
        SLEUTH_ASSERT(!members.empty(), "empty cluster ", c);
        size_t best = members[0];
        double best_sum = std::numeric_limits<double>::infinity();
        for (size_t i : members) {
            double sum = 0.0;
            for (size_t j : members)
                if (i != j)
                    sum += dist(i, j);
            if (sum < best_sum) {
                best_sum = sum;
                best = i;
            }
        }
        reps.push_back(best);
    }
    return reps;
}

} // namespace

std::vector<size_t>
selectRepresentatives(const std::vector<int> &labels, int num_clusters,
                      const distance::DistanceMatrix &dist)
{
    return selectRepresentativesImpl(labels, num_clusters,
                                     [&dist](size_t i, size_t j) {
        return dist.at(i, j);
    });
}

std::vector<size_t>
selectRepresentatives(const std::vector<int> &labels, int num_clusters,
                      const std::function<double(size_t, size_t)> &dist)
{
    return selectRepresentativesImpl(labels, num_clusters, dist);
}

} // namespace sleuth::cluster
