package repro.pruning

import repro.core._

/** Key Points Filter (Appendix B): prune a data trajectory when a cheap
  * lower bound on the query-to-trajectory conversion cost already exceeds
  * the best distance found so far.
  *
  * Per-point bound (Theorem B.1): `minCost(q[i], τd) = min(del(q[i]),
  * min_j sub(q[i], d[j]))` — summed over all query points it lower-bounds
  * `min_j C[m][j]` for sum-type functions; for the bottleneck FD the bound
  * is the max over points (no `1/r` scaling, still sound). Sampling key
  * points at rate `r` and scaling by `1/r` (Eq. 28) makes the estimate cheap
  * but heuristic, exactly as in the paper.
  */
object KPF {

  /** `minCost(q[i], τd)` for one query point under `fn`. */
  def pointMinCost[T](qi: T, d: IndexedSeq[T], fn: DistFn[T]): Double = {
    var minSub = Double.PositiveInfinity
    fn match {
      case WedFn(_, c) =>
        var j = 0
        while (j < d.length) { val s = c.sub(qi, d(j)); if (s < minSub) minSub = s; j += 1 }
        math.min(c.del(qi), minSub)
      case DtwFn(_, sub) =>
        var j = 0
        while (j < d.length) { val s = sub(qi, d(j)); if (s < minSub) minSub = s; j += 1 }
        minSub // DTW deletion cost = sub with the matched point, so min-sub is the bound
      case FrechetFn(_, sub) =>
        var j = 0
        while (j < d.length) { val s = sub(qi, d(j)); if (s < minSub) minSub = s; j += 1 }
        minSub
    }
  }

  /** Exact (unsampled) lower bound `minCost(τq, τd)` of Theorem B.1. */
  def lowerBound[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Double = fn match {
    case FrechetFn(_, _) =>
      var i = 0; var mx = 0.0
      while (i < q.length) { val c = pointMinCost(q(i), d, fn); if (c > mx) mx = c; i += 1 }
      mx
    case _ =>
      var i = 0; var sum = 0.0
      while (i < q.length) { sum += pointMinCost(q(i), d, fn); i += 1 }
      sum
  }

  /** Uniformly sampled key-point indices at rate `r` (at least one point). */
  def keyPointIdx(m: Int, r: Double): Array[Int] = {
    val k = math.max(1, math.round(m * r).toInt)
    Array.tabulate(k)(i => ((i + 0.5) * m / k).toInt.min(m - 1))
  }

  /** Sampled estimate `minCost_e` (Eq. 28): `1/r`-scaled for sum-type
    * functions, plain max for FD. Summing (maxing) stops once the value that
    * would be returned reaches `stopAt`; costs are non-negative, so the
    * partial value never decreases and `estimate(.., stopAt) >= stopAt`
    * exactly when the full estimate is, and below `stopAt` the two are equal.
    */
  def estimate[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], r: Double,
                  stopAt: Double = Double.PositiveInfinity): Double = {
    val idx = keyPointIdx(q.length, r)
    fn match {
      case FrechetFn(_, _) =>
        var mx = 0.0; var k = 0
        while (k < idx.length && mx < stopAt) {
          val c = pointMinCost(q(idx(k)), d, fn); if (c > mx) mx = c; k += 1
        }
        mx
      case _ =>
        var sum = 0.0; var k = 0
        while (k < idx.length && sum * q.length / idx.length < stopAt) {
          sum += pointMinCost(q(idx(k)), d, fn); k += 1
        }
        sum * q.length / idx.length
    }
  }
}
