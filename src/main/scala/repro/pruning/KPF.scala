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
  * [[GridMinKeys]] key points, both bit-equal to the m·n scan's minimum;
  * `keyBound` (at the estimate's key points) and `boxBound` (at every query
  * point) take `d`'s bounding [[Box]], and `segBound` runs CMA's recurrence
  * over the boxes of `d`'s segments. Every other function gets 0, a sound
  * bound. KPF is typed on `Point`, as are its callers (`Pruner`, the Spark
  * top-K's box order): the road-network functions never reach it.
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
    keyBound(q, fn, idx, (if (idx.length >= GridMinKeys) PointGrid(d) else None).getOrElse(new Scan(d)))
  }

  /** [[estimate]]'s combination over the key points `idx` of `q`, each term
    * from `near`, which is built only for a function with a [[euclidTerm]].
    * With `d`'s bounding [[Box]] it is `<=` [[estimate]] at the same key
    * points: each term is, and the combination is monotone (DESIGN.md §3).
    */
  private[pruning] def keyBound(q: IndexedSeq[Point], fn: DistFn[Point], idx: Array[Int], near: => Nearest): Double =
    euclidTerm(fn).fold(0.0) { term =>
      val t = term(near)
      combine(fn, q.length, idx.length)(k => t(q(idx(k))))
    }

  /** A bounding box; a point's distance to it is `<=` that to every point inside, bit for bit (DESIGN.md §3). */
  final case class Box(minX: Double, maxX: Double, minY: Double, maxY: Double) extends Nearest {
    def nearest(qx: Double, qy: Double): Double = {
      val dx = Box.gap(qx - maxX, minX - qx)
      val dy = Box.gap(qy - maxY, minY - qy)
      math.sqrt(dx * dx + dy * dy)
    }
  }

  object Box {

    /** The bounding box of `d(from until until)`, by compares; a non-finite
      * coordinate is rejected with `IllegalArgumentException`.
      */
    def of(d: IndexedSeq[Point], from: Int, until: Int): Box = {
      var minX, minY = Double.PositiveInfinity
      var maxX, maxY = Double.NegativeInfinity
      var finite = true
      var j = from
      while (j < until) {
        val p = d(j)
        finite &&= p.x.isFinite && p.y.isFinite
        if (p.x < minX) minX = p.x
        if (p.x > maxX) maxX = p.x
        if (p.y < minY) minY = p.y
        if (p.y > maxY) maxY = p.y
        j += 1
      }
      require(finite, "data coordinates must be finite")
      Box(minX, maxX, minY, maxY)
    }

    /** `max(0, max(a, b))` by compares, bit for bit: NaN if either is. */
    private def gap(a: Double, b: Double): Double =
      if (a > 0.0 && a >= b) a
      else if (b > 0.0 && b >= a) b
      else if (a <= 0.0 && b <= 0.0) 0.0
      else a + b
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

  /** Points per segment box of [[segBound]] (ROADMAP.md P1: 16 cut the
    * search time more than 8 on Beijing).
    */
  private val SegPoints = 16

  /** `min(lb, threshold)`, where `lb <= CMA.search(q, d, fn).dist` is
    * CMA's recurrence over `q`'s points × the bounding boxes of `d`'s
    * [[SegPoints]]-point segments (Vlachos et al., KDD 2003), each cell
    * taking [[euclidTerm]]'s term over its box: DTW and FD from their three
    * predecessors, ERP and EDR from the running minimum of the row above,
    * with insertions dropped; 0 for a function without a term. A cell at or
    * above `threshold` is dead: it feeds only dead cells, so a row starts
    * at the first live column of the row above (and for DTW and FD ends
    * after its last), and the DP stops at the first row with no live cell.
    * A non-finite data coordinate is rejected (DESIGN.md §3).
    */
  def segBound(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point], threshold: Double): Double =
    euclidTerm(fn).fold(0.0) { _ =>
      require(q.nonEmpty && d.nonEmpty, "segBound requires non-empty trajectories")
      val boxes = Array.tabulate((d.length + SegPoints - 1) / SegPoints)(s =>
        Box.of(d, s * SegPoints, math.min(d.length, (s + 1) * SegPoints)))
      val n = boxes.length
      val (wed, frechet) = (fn.isInstanceOf[WedFn[_]], fn.isInstanceOf[FrechetFn[_]])
      // euclidTerm's term over a box at distance `dist`: EDR's 0 or 1, else
      // min(cap, dist), where the cap is ERP's del (+inf for DTW and FD).
      val (cap, edr, eps) = fn match {
        case WedFn(_, c @ ErpCosts(_)) => ((p: Point) => c.del(p), false, 0.0)
        case WedFn(_, EdrCosts(e))     => ((_: Point) => Double.PositiveInfinity, true, e)
        case _                         => ((_: Point) => Double.PositiveInfinity, false, 0.0)
      }
      var (prev, cur) = (new Array[Double](n), new Array[Double](n))
      var (from, to) = (0, n - 1) // the live columns of the row above; in the first row, all
      var lo = 0.0
      var i = 0
      while (i < q.length && from <= to) {
        val t = prev; prev = cur; cur = t
        val p = q(i); val pCap = cap(p)
        val start = from; val last = to
        var run = Double.PositiveInfinity
        lo = Double.PositiveInfinity; to = -1
        var s = start
        while (s < n && (wed || s <= last + 1 || cur(s - 1) < threshold)) {
          var b = if (i == 0) 0.0 else if (s <= last) prev(s) else Double.PositiveInfinity
          if (i > 0 && wed) { if (run < b) b = run; run = b }
          else if (i > 0 && s > start) {
            if (cur(s - 1) < b) b = cur(s - 1)
            if (s - 1 <= last && prev(s - 1) < b) b = prev(s - 1)
          }
          val dist = boxes(s).nearest(p.x, p.y)
          val x = if (edr) { if (dist <= eps) 0.0 else 1.0 } else if (pCap < dist) pCap else dist
          val c = if (!frechet) b + x else if (x > b) x else b
          cur(s) = c
          if (c < threshold) { if (to < 0) from = s; to = s }
          if (c < lo) lo = c
          s += 1
        }
        i += 1
      }
      if (lo >= threshold) threshold else lo
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
