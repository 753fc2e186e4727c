package repro.baselines

import repro.core._

/** ExactS (Wang et al. [26], Algorithm 1): for every start position `i`, run
  * an incremental DP over `τd[i:n]` and take the best end. `O(mn)` per start,
  * `O(mn²)` overall — the exact baseline CMA is measured against.
  */
object ExactS {

  /** Optimal subtrajectory, `O(mn²)`. */
  def search[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "ExactS requires non-empty trajectories")
    val n = d.length
    var best: SubtrajResult = null
    var i = 1
    while (i <= n) {
      val dp = PrefixDP(q, fn)
      var j = i
      while (j <= n) {
        val dist = dp.extend(d(j - 1))
        if (best == null || dist < best.dist - 1e-12) best = SubtrajResult(i, j, dist)
        j += 1
      }
      i += 1
    }
    best
  }

  /** All-subtrajectory distance matrix `D(i-1)(j-1) = dist(q, d[i:j])` —
    * ExactS's intermediate results, which the effectiveness metrics (AR/MR/RR,
    * Table 2) rank against. `+inf` below the diagonal.
    */
  def allDistances[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Array[Array[Double]] = {
    require(q.nonEmpty && d.nonEmpty, "ExactS requires non-empty trajectories")
    val n = d.length
    val D = Array.fill(n, n)(Double.PositiveInfinity)
    var i = 1
    while (i <= n) {
      val dp = PrefixDP(q, fn)
      var j = i
      while (j <= n) { D(i - 1)(j - 1) = dp.extend(d(j - 1)); j += 1 }
      i += 1
    }
    D
  }
}
