#ifndef SARA_COMPILER_PARTITION_H
#define SARA_COMPILER_PARTITION_H

/**
 * @file
 * Compute partitioning (paper §III-B1, Tables I-III): splitting a
 * VCU's local dataflow into sub-VCUs that satisfy the PCU constraints
 * (ops per unit, input/output arity with broadcast counting, no
 * cross-partition cycles), minimizing allocated partitions plus the
 * retiming cost of delay imbalance.
 *
 * The abstract problem (nodes/edges/costs) is exposed so the traversal
 * algorithms and the MIP-style solver can be compared head-to-head
 * (Fig. 11), independent of graph rewriting.
 */

#include <utility>
#include <vector>

#include "compiler/options.h"
#include "dfg/vudfg.h"

namespace sara::compiler {

/** Abstract partitioning instance (one VCU's dataflow DAG). */
struct PartitionProblem
{
    int n = 0;
    std::vector<std::pair<int, int>> edges; ///< src -> dst (a DAG).
    std::vector<int> opCost; ///< Countable ops per node (0 = free).
    int maxOps = 6;
    int maxIn = 6;
    int maxOut = 6;
    double alpha = 1.0 / 6; ///< Retiming cost multiplier (Table III).
    /** Optional second capacity (e.g. counter chains for merging). */
    std::vector<int> auxCost;
    int maxAux = 0; ///< 0 disables the aux constraint.
};

/** Assignment of nodes to partitions. */
struct PartitionSolution
{
    std::vector<int> assign;
    int numPartitions = 0;
    double cost = 0.0;
    bool feasible = true;
};

/**
 * Cost of assignments to one problem: #partitions + alpha * retiming
 * gaps, or 1e18 when a constraint (ops, in/out arity, aux capacity,
 * acyclicity across partitions) is violated.
 *
 * Built once per problem and reused across evaluations: the edge
 * adjacency is precomputed and every scratch buffer is kept, so an
 * evaluation is O(n + edges + partitions) with no allocation once the
 * buffers have grown. One evaluator per thread; it holds no shared
 * state. `prob` must outlive it.
 */
class PartitionEvaluator
{
  public:
    explicit PartitionEvaluator(const PartitionProblem &prob);

    double cost(const std::vector<int> &assign, bool *feasible);

  private:
    const PartitionProblem &prob_;
    std::vector<int> succStart_, succ_; ///< Edges by source (CSR).
    std::vector<int> ops_, aux_, inSrcs_, outNodes_, lastSrc_;
    std::vector<int> crossSrc_, crossDst_;  ///< Cross-partition edges.
    std::vector<int> partStart_, partSucc_; ///< Partition graph (CSR).
    std::vector<int> fill_, indeg_, depth_, ready_;
};

/** One-shot PartitionEvaluator(prob).cost(assign, feasible). */
double partitionCost(const PartitionProblem &prob,
                     const std::vector<int> &assign, bool *feasible);

/** Traversal-based algorithm: topological chunking in BFS/DFS order,
 *  forward or backward (paper §III-B1c). */
PartitionSolution partitionTraversal(const PartitionProblem &prob,
                                     PartitionAlgo algo);

/** Result of rewriting the whole graph. */
struct PartitionReport
{
    int unitsPartitioned = 0;
    int partitionsCreated = 0; ///< Extra units added.
};

/** Partition every oversized Compute unit in `graph` and rewrite it
 *  (new sub-units + per-firing forwarding streams + replicated
 *  control inputs). */
PartitionReport partitionCompute(dfg::Vudfg &graph,
                                 const CompilerOptions &options);

} // namespace sara::compiler

#endif // SARA_COMPILER_PARTITION_H
