#pragma once

/**
 * @file
 * Semantic text embeddings for service and operation names.
 *
 * The paper uses a pre-trained sentence-BERT model to produce 768-d
 * embeddings whose distances reflect semantic similarity (§3.2.2). This
 * module substitutes a deterministic token-hash embedder: names are
 * pre-processed the same way the paper describes (special characters
 * removed, camel-case words separated, long hex digits replaced with a
 * placeholder), each token is hashed to a stable pseudo-random unit
 * vector, and the token vectors are averaged and re-normalized. Names
 * sharing tokens ("redis-get" vs "redis-set") land near each other,
 * names with disjoint vocabularies land far apart — the two properties
 * the Sleuth model and the Fig. 8 semantic-sensitivity experiment rely
 * on. Embeddings are cached per distinct string, mirroring the paper's
 * pointer-based storage optimization.
 */

#include <string>
#include <unordered_map>
#include <vector>

namespace sleuth::embed {

/**
 * Pre-process raw span text (paper §3.2.2): strip special characters,
 * split camel case, lower-case, and replace hex-digit IDs with "<id>".
 */
std::vector<std::string> preprocess(const std::string &text);

/** Deterministic token-hash sentence embedder with a per-string cache. */
class TextEmbedder
{
  public:
    /** Construct with the embedding dimensionality. */
    explicit TextEmbedder(size_t dim = 32);

    /** Embedding dimensionality. */
    size_t dim() const { return dim_; }

    /**
     * Embed a text; the result is an L2-normalized dim()-vector, the
     * zero vector for texts with no tokens. Results are cached per
     * distinct input string.
     */
    const std::vector<double> &embed(const std::string &text);

    /** Cosine similarity of two embeddings (0 when either is zero). */
    static double cosine(const std::vector<double> &a,
                         const std::vector<double> &b);

    /** Number of distinct strings cached so far. */
    size_t cacheSize() const { return cache_.size(); }

  private:
    std::vector<double> computeEmbedding(const std::string &text) const;
    std::vector<double> tokenVector(const std::string &token) const;

    size_t dim_;
    std::unordered_map<std::string, std::vector<double>> cache_;
};

} // namespace sleuth::embed
