#pragma once

/**
 * @file
 * Neural-network building blocks on top of the autograd engine: linear
 * layers and multi-layer perceptrons with Xavier initialization. Each
 * has two entry points: forward() builds the autograd graph for
 * training, infer() computes the same values on plain tensors.
 */

#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/json.h"
#include "util/rng.h"

namespace sleuth::nn {

/** Supported hidden activations. */
enum class Activation { None, Relu, Sigmoid, Tanh };

/** Fully connected layer: y = x W + b. */
class Linear
{
  public:
    /** Xavier-initialized layer of the given shape. */
    Linear(size_t in, size_t out, util::Rng &rng);

    /** Forward pass: x is Nxin, the result is Nxout. */
    Var forward(const Var &x) const;

    /**
     * Inference pass: the value forward() computes, bitwise, on plain
     * tensors (no autograd node is built).
     */
    Tensor infer(const Tensor &x) const;

    /** Trainable parameters (weight then bias). */
    std::vector<Var> parameters() const { return {weight_, bias_}; }

    /** Input width. */
    size_t inFeatures() const { return weight_->value().rows(); }
    /** Output width. */
    size_t outFeatures() const { return weight_->value().cols(); }

  private:
    Var weight_;  ///< in x out
    Var bias_;    ///< 1 x out
};

/** A multi-layer perceptron with a fixed hidden activation. */
class Mlp
{
  public:
    /**
     * Build an MLP from layer widths.
     *
     * @param widths at least {in, out}; intermediate entries are hidden
     * @param hidden activation between layers (not applied after last)
     * @param rng initialization randomness
     */
    Mlp(const std::vector<size_t> &widths, Activation hidden,
        util::Rng &rng);

    /** Forward pass over a batch of rows. */
    Var forward(Var x) const;

    /**
     * Inference over a batch of rows: bitwise the value of
     * forward(constant(x)), computed without building autograd nodes,
     * closures or shared pointers. Every caller that needs no gradient
     * uses this.
     */
    Tensor infer(const Tensor &x) const;

    /** All trainable parameters, in layer order. */
    std::vector<Var> parameters() const;

    /** Total scalar parameter count. */
    size_t parameterCount() const;

    /** Input width. */
    size_t inFeatures() const { return layers_.front().inFeatures(); }
    /** Output width. */
    size_t outFeatures() const { return layers_.back().outFeatures(); }

  private:
    std::vector<Linear> layers_;
    Activation hidden_;
};

/** Apply an activation to a Var. */
Var activate(const Var &x, Activation act);

/** Serialize a parameter list to a JSON array of {rows, cols, data}. */
util::Json parametersToJson(const std::vector<Var> &params);

/**
 * Load parameter values in place from JSON produced by
 * parametersToJson(); shapes must match exactly (fatal otherwise).
 */
void parametersFromJson(const util::Json &doc,
                        const std::vector<Var> &params);

} // namespace sleuth::nn
