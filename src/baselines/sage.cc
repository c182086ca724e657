#include "sage.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>

#include "baselines/op_stats.h"

namespace sleuth::baselines {

SageRca::SageRca(Config config)
    : config_(config), rng_(config.seed ^ 0x5a6eu)
{
}

std::array<double, 5>
SageRca::inputRow(double max_child_dur, double sum_child_dur,
                  double max_child_err, double excl_dur_scaled,
                  double excl_err)
{
    return {max_child_dur, sum_child_dur, max_child_err,
            excl_dur_scaled, excl_err};
}

void
SageRca::fit(const std::vector<trace::Trace> &corpus)
{
    SLEUTH_ASSERT(!corpus.empty());
    models_.clear();
    profile_ = core::NormalProfile();

    // --- Collect per-operation training rows. ---
    for (const trace::Trace &t : corpus) {
        profile_.add(t);
        trace::TraceGraph g = trace::TraceGraph::build(t);
        trace::ExclusiveMetrics m = trace::computeExclusive(t, g);
        for (size_t i = 0; i < t.spans.size(); ++i) {
            const trace::Span &s = t.spans[i];
            double max_d = -5.0, sum_d = 0.0, max_e = 0.0;
            for (int c : g.children(static_cast<int>(i))) {
                const trace::Span &k =
                    t.spans[static_cast<size_t>(c)];
                double d = scale_.scaleUs(
                    static_cast<double>(k.durationUs()));
                max_d = std::max(max_d, d);
                sum_d += std::pow(10.0, d);  // sum in 10^scaled space
                max_e = std::max(max_e, k.hasError() ? 1.0 : 0.0);
            }
            double sum_scaled =
                sum_d > 0.0 ? std::log10(sum_d) : -5.0;
            NodeModel &model =
                models_[OperationStats::key(s.service, s.name,
                                            s.kind)];
            // The duration target is the residual over the structural
            // base (children sum + exclusive), which keeps the learned
            // model calibrated under counterfactual interventions.
            double excl_scaled = scale_.scaleUs(
                static_cast<double>(m.exclusiveUs[i]));
            double base = baseScaled(sum_d, excl_scaled);
            model.rows.push_back(
                {max_d, sum_scaled, max_e, excl_scaled,
                 m.exclusiveError[i] ? 1.0 : 0.0,
                 scale_.scaleUs(static_cast<double>(s.durationUs())) -
                     base,
                 s.hasError() ? 1.0 : 0.0});
        }
    }
    profile_.finalize();

    // --- Train one model per operation (this is what makes Sage's
    // cost scale with the application size). ---
    for (auto &[key, model] : models_) {
        (void)key;
        model.mlp = std::make_unique<nn::Mlp>(
            std::vector<size_t>{5, config_.hidden, 2},
            nn::Activation::Tanh, rng_);
        nn::Tensor x(model.rows.size(), 5);
        nn::Tensor td(model.rows.size(), 1);
        nn::Tensor te(model.rows.size(), 1);
        for (size_t r = 0; r < model.rows.size(); ++r) {
            for (size_t c = 0; c < 5; ++c)
                x.at(r, c) = model.rows[r][c];
            td.at(r, 0) = model.rows[r][5];
            te.at(r, 0) = model.rows[r][6];
        }
        nn::Var input = nn::constant(std::move(x));
        nn::Var target_d = nn::constant(std::move(td));
        nn::Var target_e = nn::constant(std::move(te));
        nn::Adam opt(model.mlp->parameters(), config_.learningRate);
        for (int e = 0; e < config_.epochs; ++e) {
            nn::Var out = model.mlp->forward(input);
            nn::Var pd = nn::sliceCols(out, 0, 1);
            nn::Var pe = nn::clamp(
                nn::sigmoid(nn::sliceCols(out, 1, 2)), 1e-6,
                1.0 - 1e-6);
            nn::Var diff = nn::sub(pd, target_d);
            nn::Var one_minus_t =
                nn::scale(nn::addScalar(target_e, -1.0), -1.0);
            nn::Var one_minus_p =
                nn::scale(nn::addScalar(pe, -1.0), -1.0);
            nn::Var bce = nn::scale(
                nn::meanAll(
                    nn::add(nn::mul(target_e, nn::logOp(pe)),
                            nn::mul(one_minus_t,
                                    nn::logOp(one_minus_p)))),
                -1.0);
            nn::Var loss =
                nn::add(nn::meanAll(nn::mul(diff, diff)), bce);
            nn::backward(loss);
            opt.step();
        }
        model.rows.clear();
        model.rows.shrink_to_fit();
    }
    fitted_ = true;
}

double
SageRca::baseScaled(double children_sum_pow10, double excl_scaled) const
{
    // Structural base: children-sum plus exclusive time, in scaled
    // (log10-standardized) space. children_sum_pow10 is the sum of
    // 10^scaled child durations (0 for leaves).
    double children_us = children_sum_pow10 > 0.0
        ? std::pow(10.0,
                   scale_.sigma * std::log10(children_sum_pow10) +
                       scale_.mu)
        : 0.0;
    double excl_us = scale_.unscale(excl_scaled);
    return scale_.scaleUs(children_us + excl_us);
}

std::pair<double, double>
SageRca::predict(const std::string &key,
                 const std::array<double, 5> &in) const
{
    double children_sum_pow10 =
        in[1] <= -4.9 ? 0.0 : std::pow(10.0, in[1]);
    double base = baseScaled(children_sum_pow10, in[3]);
    auto it = models_.find(key);
    if (it == models_.end() || !it->second.mlp) {
        // Unseen operation (e.g. after a service update): Sage has no
        // model for it — only the structural identity remains.
        return {base, std::max(in[2], in[4])};
    }
    nn::Tensor row(1, 5);
    for (size_t c = 0; c < 5; ++c)
        row.at(0, c) = in[c];
    nn::Tensor out = it->second.mlp->infer(row);
    double err = 1.0 / (1.0 + std::exp(-out.at(0, 1)));
    double correction = std::clamp(out.at(0, 0), -0.3, 0.3);
    return {base + correction, err};
}

size_t
SageRca::parameterCount() const
{
    size_t total = 0;
    for (const auto &[key, model] : models_) {
        (void)key;
        if (model.mlp)
            total += model.mlp->parameterCount();
    }
    return total;
}

std::vector<std::string>
SageRca::locate(const trace::Trace &anomaly, int64_t slo_us)
{
    SLEUTH_ASSERT(fitted_, "sage not fitted");
    trace::TraceGraph g = trace::TraceGraph::build(anomaly);
    trace::ExclusiveMetrics m = trace::computeExclusive(anomaly, g);
    const size_t n = anomaly.spans.size();

    // Candidate ranking: excess exclusive duration + exclusive errors
    // (same scheme as Sleuth's counterfactual front end).
    double err_weight = static_cast<double>(std::max<int64_t>(
        slo_us, 1));
    std::map<std::string, double> score;
    for (size_t i = 0; i < n; ++i) {
        const trace::Span &s = anomaly.spans[i];
        double excess = std::max(
            0.0, static_cast<double>(m.exclusiveUs[i]) -
                     profile_.medianExclusiveUs(s.service, s.name,
                                                s.kind));
        score[s.service] +=
            excess + (m.exclusiveError[i] ? err_weight : 0.0);
    }
    std::vector<std::pair<std::string, double>> ranked(score.begin(),
                                                       score.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    while (!ranked.empty() && ranked.back().second <= 0.0)
        ranked.pop_back();
    if (ranked.empty())
        return {};

    auto propagate = [&](const std::set<std::string> &restored) {
        std::vector<double> dur_us(n, 0.0), err(n, 0.0);
        for (int node : g.bottomUpOrder()) {
            size_t i = static_cast<size_t>(node);
            const trace::Span &s = anomaly.spans[i];
            bool fix = restored.count(s.service) > 0;
            double excl = fix
                ? std::min(static_cast<double>(m.exclusiveUs[i]),
                           profile_.medianExclusiveUs(
                               s.service, s.name, s.kind))
                : static_cast<double>(m.exclusiveUs[i]);
            double excl_err =
                fix ? 0.0 : (m.exclusiveError[i] ? 1.0 : 0.0);
            double max_d = -5.0, sum_pow10 = 0.0, max_e = 0.0;
            for (int c : g.children(node)) {
                double dsc =
                    scale_.scaleUs(dur_us[static_cast<size_t>(c)]);
                max_d = std::max(max_d, dsc);
                sum_pow10 += std::pow(10.0, dsc);
                max_e =
                    std::max(max_e, err[static_cast<size_t>(c)]);
            }
            double sum_scaled =
                sum_pow10 > 0.0 ? std::log10(sum_pow10) : -5.0;
            auto [pd, pe] = predict(
                OperationStats::key(s.service, s.name, s.kind),
                inputRow(max_d, sum_scaled, max_e,
                         scale_.scaleUs(excl), excl_err));
            if (g.children(node).empty()) {
                // Leaves reduce to their exclusive state.
                dur_us[i] = excl;
                err[i] = excl_err;
            } else {
                dur_us[i] =
                    std::min(scale_.unscale(pd), 1e8);  // <= 100 s
                err[i] = std::max(pe, excl_err);
            }
        }
        size_t root = static_cast<size_t>(g.root());
        return std::make_pair(dur_us[root], err[root]);
    };

    // Bias-corrected counterfactual test (same scheme as Sleuth): the
    // model's reconstruction bias on this trace scales the SLO.
    auto [base_dur, base_err] = propagate({});
    double actual_root = static_cast<double>(
        std::max<int64_t>(anomaly.rootDurationUs(), 1));
    double bias = std::clamp(base_dur / actual_root, 0.05, 20.0);
    double adjusted_slo = static_cast<double>(std::max<int64_t>(
                              slo_us, 1)) *
                          bias * 1.15;

    std::set<std::string> restored;
    std::vector<std::string> out;
    size_t limit = std::min(config_.maxRootCauses, ranked.size());
    for (size_t k = 0; k < limit; ++k) {
        restored.insert(ranked[k].first);
        out.push_back(ranked[k].first);
        auto [root_dur, root_err] = propagate(restored);
        bool error_ok = root_err < config_.errorThreshold ||
                        root_err < 0.5 * base_err;
        if (root_dur <= adjusted_slo && error_ok)
            break;
    }
    return out;
}

} // namespace sleuth::baselines
