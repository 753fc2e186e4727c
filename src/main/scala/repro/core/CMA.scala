package repro.core

import scala.collection.immutable.ArraySeq

/** Result of a subtrajectory search: the optimal `τd[start:end]` (1-based,
  * inclusive) and its distance to the query trajectory.
  */
final case class SubtrajResult(start: Int, end: Int, dist: Double) {
  require(start >= 1 && end >= start, s"invalid interval [$start,$end]")
}

/** Conversion-Matching Algorithm (paper §4–§5): exact similar-subtrajectory
  * search in `O(mn)` time and `O(n)` memory for every order-insensitive
  * distance function.
  *
  * `C[i][j]` is the optimal partial matching-conversion cost (Definition 7):
  * the minimum cost of converting `τq[1:i]` into a subtrajectory of
  * `τd[1:j]` with `τq[i]` matched to `τd[j]`. `s[i][j]` tracks the index of
  * `τq[1]`'s match, i.e. the start of the subtrajectory. By Theorems 4.1/4.2
  * the answer is `min_j C[m][j]` with start `s[m][argmin]`.
  *
  * With non-negative costs no later row can undercut a finished row's
  * bound (DESIGN.md §3): `min_j C[i][j]` for DTW/FD, `min(min_j C[i][j],
  * del(q[1:i]))` for the WED family. [[searchBelow]] stops there once that
  * bound reaches a threshold (the UCR suite's early abandoning).
  */
object CMA {

  /** Search the optimal subtrajectory of `d` for query `q` under `fn`. */
  def search[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "CMA requires non-empty trajectories")
    run(q, d, fn, Double.PositiveInfinity)
  }

  /** [[search]] below a threshold: `Some(search(q, d, fn))` iff its distance
    * is `< bound`, else `None`. Between rows the kernel checks the finished
    * row's bound and returns `None` as soon as it proves the optimum `>=
    * bound`, without filling the remaining rows. An infinite `bound` sets no
    * threshold: the answer is then `Some(search(q, d, fn))` for every input,
    * a NaN or infinite distance included.
    */
  def searchBelow[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], bound: Double): Option[SubtrajResult] = {
    require(q.nonEmpty && d.nonEmpty, "CMA requires non-empty trajectories")
    val r = run(q, d, fn, bound)
    if (r != null && (r.dist < bound || bound == Double.PositiveInfinity)) Some(r) else None
  }

  /** The optimum, or `null` once a finished row proves it `>= bound`. */
  private def run[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], bound: Double): SubtrajResult =
    fn match {
      case WedFn(_, c: RowCosts) => searchWedRows(q, d, c, bound)
      case WedFn(_, c)           => searchWed(q, d, c, bound)
      case DtwFn(_, sub)         => searchSum(q, d, sub, frechet = false, bound)
      case FrechetFn(_, sub)     => searchSum(q, d, sub, frechet = true, bound)
    }

  /* Eq. 7 has two kernels, chosen by the cost model's type. `searchWed`
   * evaluates `sub` inside the cell loop; `searchWedRows` first gathers a
   * whole row of `sub` costs from a `RowCosts` lookup table. Gathering pays
   * only when `sub` is a lookup. Filling a row by `sub` calls for point
   * EDR/ERP too (perfbench `beijing-exact`, 4 cores) raised them from 2.0 /
   * 2.2 to 3.1 / 3.2 ns/cell and cut 115-119 to 92-99 queries/s: the fused
   * loop hides each point cost's `sqrt` behind the DP update. Both kernels
   * share the cell update below.
   */

  /** Eq. 7 — WED family. Row `i` is computed from row `i-1` plus the
    * in-row `ins`-chain term `C[i][j-1] + ins(d[j-1]) - sub(q[i], d[j-1]) +
    * sub(q[i], d[j])`, which folds `min_{k<j-1} C[i-1][k] + ins(d[k+1:j-1])`
    * into a single O(1) transition.
    *
    * Each cost is evaluated once: `del(q[i])` per query point, `ins(d[j])`
    * per data point (both before the row loop) and `sub(q[i], d[j])` per
    * cell, carried one column for the `ins`-chain term — m·n `sub`, n `ins`
    * and m `del` calls in all.
    */
  private def searchWed[T](q: IndexedSeq[T], d: IndexedSeq[T], c: WedCosts[T], bound: Double): SubtrajResult = {
    val m = q.length; val n = d.length
    val (delQ, delPrefix, insD) = indels(q, d, c)
    var prevC = new Array[Double](n + 1) // C[i-1][*], 1-based in j
    var curC  = new Array[Double](n + 1)
    var prevS = new Array[Int](n + 1)    // start index s[i-1][*]
    var curS  = new Array[Int](n + 1)

    // i = 1: C[1][j] = sub(q1, dj), s[1][j] = j
    var j = 1
    while (j <= n) { curC(j) = c.sub(q(0), d(j - 1)); curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
      if (abandoned(curC, n, delPrefix(i - 1), bound) &&
          abandoned(curC, n, delPrefix(i - 1), wedStop(bound, n, delQ, insD))) return null
      val t = prevC; prevC = curC; curC = t
      val ts = prevS; prevS = curS; curS = ts
      val qi = q(i - 1)
      val delQi = delQ(i); val freshTail = delPrefix(i - 1)
      var subPrev = c.sub(qi, d(0)) // sub(qi, d[j-1]) for the next column j
      firstColumn(prevC, curC, prevS, curS, delQi, freshTail, subPrev)
      j = 2
      while (j <= n) {
        val subJ = c.sub(qi, d(j - 1))
        cell(prevC, curC, prevS, curS, j, delQi, freshTail, insD(j - 1), subPrev, subJ)
        subPrev = subJ
        j += 1
      }
      i += 1
    }
    argmin(curC, curS, n)
  }

  /** Eq. 7 over [[RowCosts]]: `searchWed`'s recurrence and `del`/`ins`
    * calls, but row `i`'s `sub(q[i], d[*])` comes from one `subRow` call (m
    * calls in all). The ids of `d` reach it as a primitive array: unwrapped
    * from an `ArraySeq.ofInt`, copied once otherwise.
    */
  private def searchWedRows(q: IndexedSeq[Int], d: IndexedSeq[Int], c: RowCosts, bound: Double): SubtrajResult = {
    val m = q.length; val n = d.length
    val ds = d match {
      case a: ArraySeq.ofInt => a.unsafeArray
      case _                 => d.toArray
    }
    val (delQ, delPrefix, insD) = indels(q, d, c)
    var prevC = new Array[Double](n + 1)
    var curC  = new Array[Double](n + 1)
    var prevS = new Array[Int](n + 1)
    var curS  = new Array[Int](n + 1)
    val sub   = new Array[Double](n + 1) // sub(q[i], d[*]), 1-based in j

    c.subRow(q(0), ds, curC)
    var j = 1
    while (j <= n) { curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
      if (abandoned(curC, n, delPrefix(i - 1), bound) &&
          abandoned(curC, n, delPrefix(i - 1), wedStop(bound, n, delQ, insD))) return null
      val t = prevC; prevC = curC; curC = t
      val ts = prevS; prevS = curS; curS = ts
      c.subRow(q(i - 1), ds, sub)
      val delQi = delQ(i); val freshTail = delPrefix(i - 1)
      firstColumn(prevC, curC, prevS, curS, delQi, freshTail, sub(1))
      j = 2
      while (j <= n) {
        cell(prevC, curC, prevS, curS, j, delQi, freshTail, insD(j - 1), sub(j - 1), sub(j))
        j += 1
      }
      i += 1
    }
    argmin(curC, curS, n)
  }

  /** `del(q[i])`, `del(q[1:i])` (1-based in i) and `ins(d[j])` (1-based in j). */
  private def indels[T](q: IndexedSeq[T], d: IndexedSeq[T],
                        c: WedCosts[T]): (Array[Double], Array[Double], Array[Double]) = {
    val m = q.length; val n = d.length
    val delQ = new Array[Double](m + 1)
    val delPrefix = new Array[Double](m + 1)
    var i = 1
    while (i <= m) { delQ(i) = c.del(q(i - 1)); delPrefix(i) = delPrefix(i - 1) + delQ(i); i += 1 }
    val insD = new Array[Double](n + 1)
    var j = 1
    while (j <= n) { insD(j) = c.ins(d(j - 1)); j += 1 }
    (delQ, delPrefix, insD)
  }

  /** Eq. 7 at `j = 1`, row `i >= 2`: delete `q[i]` (`q[i-1]` also matched
    * `d[1]`), or substitute `q[i]` for `d[1]` (`sub1`) after deleting the
    * whole query prefix `q[1:i-1]` (`freshTail`).
    */
  private def firstColumn(prevC: Array[Double], curC: Array[Double], prevS: Array[Int], curS: Array[Int],
                          delQi: Double, freshTail: Double, sub1: Double): Unit = {
    val a1 = prevC(1) + delQi
    val b1 = sub1 + freshTail
    if (a1 <= b1) { curC(1) = a1; curS(1) = prevS(1) }
    else          { curC(1) = b1; curS(1) = 1 }
  }

  /** Eq. 7 at `j >= 2`, row `i >= 2`: `C[i][j]` and its start `s[i][j]`,
    * given `insPrev = ins(d[j-1])`, `subPrev = sub(q[i], d[j-1])` and
    * `subJ = sub(q[i], d[j])`.
    */
  private def cell(prevC: Array[Double], curC: Array[Double], prevS: Array[Int], curS: Array[Int], j: Int,
                   delQi: Double, freshTail: Double, insPrev: Double, subPrev: Double, subJ: Double): Unit = {
    val delB = prevC(j) + delQi                           // delete qi
    val insB = curC(j - 1) + insPrev - subPrev + subJ     // ins-chain
    val subB = prevC(j - 1) + subJ                        // substitute
    // Fresh-start branch: delete the query prefix q[1:i-1] and open the
    // window at d[j]. Eq. 7 writes this only for j = 1, which loses the
    // optimum when deleting the query head is cheaper than substituting
    // it and the best window starts mid-trajectory (e.g. under ERP); the
    // generalization keeps O(1) per cell and restores agreement with
    // min-window WED (which ExactS computes). See DESIGN.md §3.
    val freshB = subJ + freshTail
    var best = delB; var src = 0
    if (insB < best) { best = insB; src = 1 }
    if (subB < best) { best = subB; src = 2 }
    if (freshB < best) { best = freshB; src = 3 }
    curC(j) = best
    curS(j) = src match {
      case 0 => prevS(j)
      case 1 => curS(j - 1)
      case 2 => prevS(j - 1)
      case _ => j
    }
  }

  /** Eq. 8 (DTW, `frechet=false`) and Eq. 9 (FD, `frechet=true`): both share
    * the `min{C[i-1][j], C[i][j-1], C[i-1][j-1]}` cell dependency; DTW adds
    * `sub`, FD takes `max{·, sub}`.
    */
  private def searchSum[T](q: IndexedSeq[T], d: IndexedSeq[T],
                           sub: (T, T) => Double, frechet: Boolean, bound: Double): SubtrajResult = {
    val m = q.length; val n = d.length
    var prevC = new Array[Double](n + 1)
    var curC  = new Array[Double](n + 1)
    var prevS = new Array[Int](n + 1)
    var curS  = new Array[Int](n + 1)

    var j = 1
    while (j <= n) { curC(j) = sub(q(0), d(j - 1)); curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
      if (abandoned(curC, n, Double.PositiveInfinity, bound)) return null
      val t = prevC; prevC = curC; curC = t
      val ts = prevS; prevS = curS; curS = ts
      val qi = q(i - 1)

      val s1 = sub(qi, d(0))
      if (frechet) curC(1) = math.max(prevC(1), s1)
      else         curC(1) = prevC(1) + s1
      curS(1) = prevS(1)

      j = 2
      while (j <= n) {
        val sj = sub(qi, d(j - 1))
        val a = prevC(j); val b = curC(j - 1); val c0 = prevC(j - 1)
        var best = a; var src = 0
        if (b < best) { best = b; src = 1 }
        if (c0 < best) { best = c0; src = 2 }
        curC(j) = if (frechet) math.max(best, sj) else best + sj
        curS(j) = src match {
          case 0 => prevS(j)
          case 1 => curS(j - 1)
          case _ => prevS(j - 1)
        }
        j += 1
      }
      i += 1
    }
    argmin(curC, curS, n)
  }

  /** Whether finished row `c` proves every later cell, and so the optimum,
    * `>= stop`: both its smallest cell and `floor` reach `stop`. `floor` is
    * the cheapest fresh start of any later row, `del(q[1:i])`, for the WED
    * family and `+inf` for DTW/FD. `stop = +inf` or NaN never abandons.
    */
  private def abandoned(c: Array[Double], n: Int, floor: Double, stop: Double): Boolean =
    stop < Double.PositiveInfinity && floor >= stop && {
      var mn = c(1); var j = 2
      while (j <= n) { if (c(j) < mn) mn = c(j); j += 1 }
      mn >= stop
    }

  /** The WED kernels' `stop` for `bound`: `bound` plus the most the
    * ins-chain's subtract-then-add can round a later cell below a finished
    * row's bound. Along any DP path at most `n - 1` ins-chain steps follow,
    * each rounding three times by at most half an ulp of a value below
    * `bound + max del + 2 max ins` (DESIGN.md §3); `stop` doubles that.
    * The kernels work it out only once a row bound reaches `bound`: worked
    * out before the row loop, even behind a branch, it slowed the unbounded
    * fused kernel under ERP from 2.0 to 2.26 ns/cell (JDK 17 C2).
    */
  private def wedStop(bound: Double, n: Int, delQ: Array[Double], insD: Array[Double]): Double =
    bound + 3.0 * n * Math.ulp(1.0) * (bound + largest(delQ) + 2 * largest(insD))

  private def largest(a: Array[Double]): Double = {
    var mx = 0.0; var k = 0
    while (k < a.length) { if (a(k) > mx) mx = a(k); k += 1 }
    mx
  }

  private def argmin(c: Array[Double], s: Array[Int], n: Int): SubtrajResult = {
    var bj = 1; var bd = c(1)
    var j = 2
    while (j <= n) { if (c(j) < bd) { bd = c(j); bj = j }; j += 1 }
    SubtrajResult(s(bj), bj, bd)
  }
}
