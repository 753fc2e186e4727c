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
  *
  * For DTW, FD, ERP and EDR (Euclidean sub-costs on points) `estimate`
  * answers `min_j sub(q[i], d[j])` with a [[PointGrid]] nearest-neighbour
  * query over `d`, built once per call, instead of scanning all n points.
  * The grid returns the scan's minimum bit for bit, so every estimate, and
  * every pruning decision made from it, is the scan's. Every other function
  * (NetERP, NetEDR, SURS, custom WED) scans.
  */
object KPF {

  /** Fewest key points for which `estimate` builds the grid. Building it
    * costs about 3–4 scans of `d` on 65-point and 2600-point trajectories,
    * and each grid query far less than a scan, so below 4 key points (e.g.
    * r = 0.05 on queries under 70 points) scanning is cheaper.
    */
  private val GridMinKeys = 4

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
    val minCost = (if (idx.length >= GridMinKeys) gridMinCost(d, fn) else None)
      .getOrElse((qi: T) => pointMinCost(qi, d, fn))
    fn match {
      case FrechetFn(_, _) =>
        var mx = 0.0; var k = 0
        while (k < idx.length && mx < stopAt) {
          val c = minCost(q(idx(k))); if (c > mx) mx = c; k += 1
        }
        mx
      case _ =>
        var sum = 0.0; var k = 0
        while (k < idx.length && sum * q.length / idx.length < stopAt) {
          sum += minCost(q(idx(k))); k += 1
        }
        sum * q.length / idx.length
    }
  }

  /** `pointMinCost(·, d, fn)` through a [[PointGrid]] over `d`, bit-equal to
    * the scan, for the four point functions with Euclidean sub-costs; `None`
    * for every other function and when `d` has a coordinate that is not
    * finite.
    */
  private[pruning] def gridMinCost[T](d: IndexedSeq[T], fn: DistFn[T]): Option[T => Double] = {
    def grid = PointGrid(d.asInstanceOf[IndexedSeq[Point]])
    fn match {
      case DtwFn(_, Euclid) | FrechetFn(_, Euclid) =>
        grid.map(g => (qi: T) => { val p = qi.asInstanceOf[Point]; g.nearest(p.x, p.y) })
      case WedFn(_, c @ ErpCosts(_)) =>
        grid.map(g => (qi: T) => { val p = qi.asInstanceOf[Point]; math.min(c.del(p), g.nearest(p.x, p.y)) })
      case WedFn(_, EdrCosts(eps)) =>
        // The scan's min(del = 1, min_j sub) with sub in {0, 1}.
        grid.map(g => (qi: T) => { val p = qi.asInstanceOf[Point]; if (g.within(p.x, p.y, eps)) 0.0 else 1.0 })
      case _ => None
    }
  }
}
