#include "harness.h"

#include <set>

#include "synth/catalog.h"
#include "synth/generator.h"

namespace sleuth::eval {

std::string
toString(BenchmarkApp app)
{
    switch (app) {
      case BenchmarkApp::SockShop: return "SockShop";
      case BenchmarkApp::SocialNet: return "SocialNet";
      case BenchmarkApp::Syn16: return "Synthetic-16";
      case BenchmarkApp::Syn64: return "Synthetic-64";
      case BenchmarkApp::Syn256: return "Synthetic-256";
      case BenchmarkApp::Syn1024: return "Synthetic-1024";
    }
    util::panic("invalid benchmark app");
}

synth::AppConfig
makeApp(BenchmarkApp app, uint64_t seed)
{
    switch (app) {
      case BenchmarkApp::SockShop:
        return synth::sockShopConfig();
      case BenchmarkApp::SocialNet:
        return synth::socialNetworkConfig();
      case BenchmarkApp::Syn16:
        return synth::generateApp(synth::syntheticParams(16, seed));
      case BenchmarkApp::Syn64:
        return synth::generateApp(synth::syntheticParams(64, seed));
      case BenchmarkApp::Syn256:
        return synth::generateApp(synth::syntheticParams(256, seed));
      case BenchmarkApp::Syn1024:
        return synth::generateApp(synth::syntheticParams(1024, seed));
    }
    util::panic("invalid benchmark app");
}

ExperimentData
prepareExperiment(synth::AppConfig app, const ExperimentParams &raw)
{
    ExperimentParams params = raw;
    sim::ClusterModel cluster(app, params.clusterNodes, params.seed);
    if (params.targetFaultsPerPlan > 0.0) {
        // Rescale the Bernoulli incidences so the expected number of
        // simultaneous faults stays constant as the deployment grows.
        size_t n_inst = cluster.allInstances().size();
        std::set<std::string> pods, nodes;
        for (const chaos::Instance &i : cluster.allInstances()) {
            pods.insert(i.pod);
            nodes.insert(i.node);
        }
        double expected =
            params.chaosParams.containerProb *
                static_cast<double>(n_inst) +
            params.chaosParams.podProb *
                static_cast<double>(pods.size()) +
            params.chaosParams.nodeProb *
                static_cast<double>(nodes.size());
        if (expected > 0.0) {
            double scale = params.targetFaultsPerPlan / expected;
            params.chaosParams.containerProb =
                std::min(1.0, params.chaosParams.containerProb * scale);
            params.chaosParams.podProb =
                std::min(1.0, params.chaosParams.podProb * scale);
            params.chaosParams.nodeProb =
                std::min(1.0, params.chaosParams.nodeProb * scale);
        }
    }
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0,
                                  params.seed ^ 0xca1u);

    ExperimentData data{std::move(app), std::move(cluster), {}, {}};

    // Training corpus: mostly healthy traffic plus a slice produced
    // under random chaos plans, mimicking unlabeled production data
    // that naturally contains incidents (the labels are never used).
    sim::Simulator healthy(data.app, data.cluster,
                           {.seed = params.seed ^ 0x41ee7u});
    size_t faulty_count = static_cast<size_t>(
        params.faultyTrainFraction *
        static_cast<double>(params.trainTraces));
    data.trainCorpus.reserve(params.trainTraces);
    for (size_t i = 0; i + faulty_count < params.trainTraces; ++i)
        data.trainCorpus.push_back(healthy.simulateOne().trace);
    util::Rng train_rng(params.seed ^ 0x7a117u);
    size_t produced = 0;
    for (size_t plan_id = 0; produced < faulty_count; ++plan_id) {
        util::Rng plan_rng = train_rng.fork(plan_id);
        chaos::FaultPlan plan = chaos::planFaults(
            data.cluster.allInstances(), params.chaosParams, plan_rng);
        if (plan.empty())
            continue;
        sim::Simulator faulty(data.app, data.cluster,
                              {.seed = params.seed ^
                                       (0x8f00 + plan_id)},
                              plan);
        for (size_t k = 0; k < 8 && produced < faulty_count; ++k) {
            data.trainCorpus.push_back(faulty.simulateOne().trace);
            ++produced;
        }
        SLEUTH_ASSERT(plan_id < 100 * faulty_count + 100,
                      "chaos parameters never produce fault plans");
    }

    // Anomaly queries: draw independent chaos plans; harvest the
    // SLO-violating traces they materially touch.
    util::Rng rng(params.seed ^ 0xc4a05u);
    size_t plan_counter = 0;
    while (data.queries.size() < params.numQueries) {
        ++plan_counter;
        util::Rng plan_rng = rng.fork(plan_counter);
        chaos::FaultPlan plan = chaos::planFaults(
            data.cluster.allInstances(), params.chaosParams, plan_rng);
        if (plan.empty())
            continue;
        sim::Simulator faulty(data.app, data.cluster,
                              {.seed = params.seed ^
                                       (0xfa0 + plan_counter)},
                              plan);
        size_t harvested = 0;
        for (size_t attempt = 0;
             attempt < params.attemptsPerPlan *
                           std::max<size_t>(1, params.queriesPerPlan) &&
             data.queries.size() < params.numQueries &&
             harvested < params.queriesPerPlan;
             ++attempt) {
            sim::SimResult r = faulty.simulateOne();
            int64_t slo =
                data.app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
            if (!r.faultTouched() || !r.violatesSlo(slo))
                continue;
            AnomalyQuery q;
            q.trace = std::move(r.trace);
            q.sloUs = slo;
            q.truthServices = std::move(r.rootCauseServices);
            q.truthContainers = std::move(r.rootCauseContainers);
            q.truthPods = std::move(r.rootCausePods);
            q.truthNodes = std::move(r.rootCauseNodes);
            data.queries.push_back(std::move(q));
            ++harvested;
        }
        SLEUTH_ASSERT(plan_counter < 200 * params.numQueries + 1000,
                      "chaos parameters never produce anomalies");
    }
    return data;
}

Scores
evaluateFitted(baselines::RcaAlgorithm &algo, const ExperimentData &data)
{
    RcaEvaluator ev;
    for (const AnomalyQuery &q : data.queries)
        ev.addQuery(toSet(algo.locate(q.trace, q.sloUs)),
                    q.truthServices);
    return {ev.f1(), ev.accuracy()};
}

Scores
evaluateAlgorithm(baselines::RcaAlgorithm &algo,
                  const ExperimentData &data)
{
    algo.fit(data.trainCorpus);
    return evaluateFitted(algo, data);
}

SleuthAdapter::SleuthAdapter(Config config)
    : config_(config), encoder_(config.gnn.embedDim)
{
}

std::string
SleuthAdapter::name() const
{
    return config_.gnn.aggregator == core::Aggregator::Gin
        ? "sleuth-gin"
        : "sleuth-gcn";
}

void
SleuthAdapter::fit(const std::vector<trace::Trace> &corpus)
{
    model_ = std::make_unique<core::SleuthGnn>(config_.gnn);
    profile_ = core::NormalProfile();
    for (const trace::Trace &t : corpus)
        profile_.add(t);
    profile_.finalize();
    core::Trainer trainer(*model_, encoder_, config_.train);
    trainer.train(corpus);
    fitted_ = true;
}

void
SleuthAdapter::fineTune(const core::SleuthGnn &pretrained,
                        const std::vector<trace::Trace> &corpus,
                        int epochs)
{
    // Snapshot first: `pretrained` may alias the model this adapter
    // currently owns (self-fine-tuning on streamed data).
    util::Json blob = pretrained.save();
    core::GnnConfig pretrained_cfg = pretrained.config();
    model_ = std::make_unique<core::SleuthGnn>(pretrained_cfg);
    model_->load(blob);
    profile_ = core::NormalProfile();
    for (const trace::Trace &t : corpus)
        profile_.add(t);
    profile_.finalize();
    if (epochs > 0 && !corpus.empty()) {
        core::TrainConfig tc = config_.train;
        tc.epochs = epochs;
        tc.learningRate = config_.train.learningRate * 0.3;
        core::Trainer trainer(*model_, encoder_, tc);
        trainer.train(corpus);
    }
    fitted_ = true;
}

std::vector<std::string>
SleuthAdapter::locate(const trace::Trace &anomaly, int64_t slo_us)
{
    SLEUTH_ASSERT(fitted_, "sleuth adapter not fitted");
    core::CounterfactualRca rca(*model_, encoder_, profile_,
                                config_.rca);
    return rca.analyze(anomaly, slo_us).services;
}

const core::SleuthGnn &
SleuthAdapter::model() const
{
    SLEUTH_ASSERT(fitted_, "sleuth adapter not fitted");
    return *model_;
}

Scores
evaluatePipeline(SleuthAdapter &adapter, const ExperimentData &data,
                 const core::PipelineConfig &pipeline,
                 const std::function<double(size_t, size_t)>
                     *custom_distance,
                 size_t *rca_invocations, Scores *container_scores)
{
    core::SleuthPipeline pipe(adapter.model(), adapter.encoder(),
                              adapter.profile(), pipeline);
    std::vector<trace::Trace> traces;
    std::vector<int64_t> slos;
    for (const AnomalyQuery &q : data.queries) {
        traces.push_back(q.trace);
        slos.push_back(q.sloUs);
    }
    // The oracle is only consulted when clustering runs.
    distance::DistanceMatrix custom;
    core::AnalysisInputs in;
    if (custom_distance != nullptr && pipeline.clustering) {
        custom = distance::DistanceMatrix::compute(traces.size(),
                                                   *custom_distance);
        in.distance = &custom;
    }
    core::PipelineResult res = pipe.analyze(traces, slos, in);
    if (rca_invocations)
        *rca_invocations = res.rcaInvocations;

    RcaEvaluator ev;
    for (size_t i = 0; i < data.queries.size(); ++i)
        ev.addQuery(toSet(res.perTrace[i].services),
                    data.queries[i].truthServices);
    if (container_scores) {
        RcaEvaluator cev;
        for (size_t i = 0; i < data.queries.size(); ++i)
            cev.addQuery(res.perTrace[i].containers,
                         data.queries[i].truthContainers);
        *container_scores = {cev.f1(), cev.accuracy()};
    }
    return {ev.f1(), ev.accuracy()};
}

} // namespace sleuth::eval
