package repro.pruning

import repro.core._

/** Key Points Filter (Appendix B): a cheap lower bound on the
  * query-to-trajectory conversion cost, by which a search visits the data
  * trajectories and prunes one once its bound reaches the best distance
  * found so far.
  *
  * Per-point bound (Theorem B.1): `minCost(q[i], τd) = min(del(q[i]),
  * min_j sub(q[i], d[j]))` — summed over all query points it lower-bounds
  * `min_j C[m][j]` for sum-type functions; for the bottleneck FD the bound
  * is the max over points (no `1/r` scaling, still sound). Sampling key
  * points at rate `r` and scaling by `1/r` (Eq. 28) makes the estimate cheap
  * but heuristic, exactly as in the paper.
  *
  * For DTW, FD, ERP and EDR (Euclidean sub-costs on points) every bound is
  * one per-point term, [[euclidTerm]], over a [[Nearest]] on `d`: `estimate`
  * takes a [[PointGrid]] built once per call, or a [[Scan]] below
  * [[GridMinKeys]] key points, both bit-equal to the m·n scan's minimum, and
  * `boxBound` takes `d`'s bounding [[Box]]. Every other function gets 0, a
  * sound bound. KPF is typed on `Point`, as are its callers (`Pruner.gate`,
  * the Spark top-K's box order): the road-network functions never reach it.
  */
object KPF {

  /** Fewest key points for which `estimate` builds the grid. Building it
    * costs about 3–4 scans of `d` on 65-point and 2600-point trajectories,
    * and each grid query far less than a scan, so below 4 key points (e.g.
    * r = 0.05 on queries under 70 points) scanning is cheaper.
    */
  private val GridMinKeys = 4

  /** Uniformly sampled key-point indices at rate `r` (at least one) of a non-empty query. */
  def keyPointIdx(m: Int, r: Double): Array[Int] = {
    require(m >= 1, "KPF requires a non-empty query")
    val k = math.max(1, math.round(m * r).toInt)
    Array.tabulate(k)(i => ((i + 0.5) * m / k).toInt.min(m - 1))
  }

  /** The query check of both searches keyed by a KPF bound, `Pruner.search`
    * and `SparkSearch.topKBatch`, made before any bound: an empty query or a
    * non-finite query coordinate is rejected with `IllegalArgumentException`,
    * as a NaN bound would sort last and be searched without a word.
    */
  private[repro] def requireQuery(q: Array[Point]): Unit = {
    require(q.nonEmpty, "queries must not be empty")
    require(q.forall(p => p.x.isFinite && p.y.isFinite), "query coordinates must be finite")
  }

  /** Sampled estimate `minCost_e` (Eq. 28): `1/r`-scaled for sum-type
    * functions, plain max for FD; 0 for a function without a [[euclidTerm]].
    */
  def estimate(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point], r: Double): Double = {
    val idx = keyPointIdx(q.length, r)
    euclidTerm(fn).fold(0.0) { term =>
      val t = term((if (idx.length >= GridMinKeys) PointGrid(d) else None).getOrElse(new Scan(d)))
      combine(fn, q.length, idx.length)(k => t(q(idx(k))))
    }
  }

  /** A bounding box; a point's distance to it is `<=` that to every point inside, bit for bit (DESIGN.md §3). */
  final case class Box(minX: Double, maxX: Double, minY: Double, maxY: Double) extends Nearest {
    def nearest(qx: Double, qy: Double): Double = {
      val dx = math.max(0.0, math.max(qx - maxX, minX - qx))
      val dy = math.max(0.0, math.max(qy - maxY, minY - qy))
      math.sqrt(dx * dx + dy * dy)
    }
  }

  /** Theorem B.1 at r = 1, with `min_j sub(q[i], d[j])` replaced by the
    * distance from `q[i]` to `d`'s bounding `box`, for DTW, FD, ERP and EDR;
    * 0 for every other function. The bound is `<=` [[estimate]] at r = 1.
    */
  def boxBound(q: IndexedSeq[Point], fn: DistFn[Point], box: Box): Double =
    euclidTerm(fn).fold(0.0) { term =>
      val t = term(box)
      combine(fn, q.length, q.length)(i => t(q(i)))
    }

  /** Theorem B.1's combination of `n` terms `term(k)` of an `m`-point query:
    * their max for FD, else their sum scaled by `m / n`, but not at `n = m`,
    * where `sum * m / m` can round an ulp above the sum and the optimum.
    */
  private def combine(fn: DistFn[Point], m: Int, n: Int)(term: Int => Double): Double =
    fn match {
      case FrechetFn(_, _) =>
        var mx = 0.0; var k = 0
        while (k < n) { val c = term(k); if (c > mx) mx = c; k += 1 }
        mx
      case _ =>
        var sum = 0.0; var k = 0
        while (k < n) { sum += term(k); k += 1 }
        if (n == m) sum else sum * m / n
    }

  /** Distances to a trajectory's points: exact ([[PointGrid]], [[Scan]]) or a lower bound ([[Box]]). */
  private[pruning] trait Nearest {
    def nearest(qx: Double, qy: Double): Double
    def within(qx: Double, qy: Double, eps: Double): Boolean = nearest(qx, qy) <= eps
  }

  /** `min_j Point(qx, qy).distTo(d(j))`, the expression `Euclid` evaluates, by a scan of `d`. */
  private final class Scan(d: IndexedSeq[Point]) extends Nearest {
    def nearest(qx: Double, qy: Double): Double = {
      val p = Point(qx, qy)
      var b = Double.PositiveInfinity
      var j = 0
      while (j < d.length) { val s = p.distTo(d(j)); if (s < b) b = s; j += 1 }
      b
    }
  }

  /** Theorem B.1's per-point term `min(del(p), min_j sub(p, d[j]))` from a
    * [[Nearest]] on `d`, for the four point functions with Euclidean
    * sub-costs; `None` for every other function. A `Nearest` that bounds
    * the distances from below bounds the term from below.
    */
  private def euclidTerm(fn: DistFn[Point]): Option[Nearest => Point => Double] = fn match {
    case DtwFn(_, Euclid) | FrechetFn(_, Euclid) => Some(n => p => n.nearest(p.x, p.y))
    case WedFn(_, c @ ErpCosts(_))               => Some(n => p => math.min(c.del(p), n.nearest(p.x, p.y)))
    case WedFn(_, EdrCosts(eps))                 => Some(n => p => if (n.within(p.x, p.y, eps)) 0.0 else 1.0)
    case _                                       => None
  }
}
