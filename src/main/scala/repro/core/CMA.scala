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
  * Every DP value is a sum (or, for FD, a max) of costs, so with
  * non-negative costs no later row can undercut a finished row's bound,
  * bit for bit (DESIGN.md §3): `min_j C[i][j]` for DTW/FD and
  * `min(min_j C[i][j], del(q[1:i]))` for the WED family. [[searchBelow]]
  * stops there once that bound reaches a threshold (the UCR suite's early
  * abandoning).
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

  /** Eq. 7 — WED family, from sums of costs only. Row `i` is computed from
    * row `i-1` and an insertion gap carried along the row: `gap_j =
    * min(C[i-1][j-1], gap_{j-1} + ins(d[j-1]))`, `gap_1 = +inf`, is the
    * cheapest conversion of `q[1:i-1]` that matched some `d[k]`, `k < j`,
    * followed by the insertion of `d[k+1:j-1]`. The paper's ins-chain term
    * reaches the same minimum by subtracting a `sub` it added, which needs
    * `del(x) + ins(y) >= sub(x, y)` and can round below a finished row; the
    * gap never subtracts (DESIGN.md §3).
    *
    * Each cost is evaluated once: `del(q[i])` per query point, `ins(d[j])`
    * per data point (both before the row loop) and `sub(q[i], d[j])` per
    * cell — m·n `sub`, n `ins` and m `del` calls in all.
    */
  private def searchWed[T](q: IndexedSeq[T], d: IndexedSeq[T], c: WedCosts[T], bound: Double): SubtrajResult = {
    val m = q.length; val n = d.length
    val (delQ, delPrefix, insD) = indels(q, d, c)
    var prevC = gapRow(n)             // C[i-1][*], 1-based in j
    var curC  = gapRow(n)
    var prevS = new Array[Int](n + 1) // start index s[i-1][*]
    var curS  = new Array[Int](n + 1)

    // i = 1: C[1][j] = sub(q1, dj), s[1][j] = j
    var j = 1
    while (j <= n) { curC(j) = c.sub(q(0), d(j - 1)); curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
      if (abandoned(curC, n, delPrefix(i - 1), bound)) return null
      val t = prevC; prevC = curC; curC = t
      val ts = prevS; prevS = curS; curS = ts
      val qi = q(i - 1)
      val delQi = delQ(i); val freshTail = delPrefix(i - 1)
      j = 1
      while (j <= n) { cell(prevC, curC, prevS, curS, j, delQi, freshTail, insD(j), c.sub(qi, d(j - 1))); j += 1 }
      i += 1
    }
    wedArgmin(curC, curS, n, delPrefix(m), insD)
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
    var prevC = gapRow(n)
    var curC  = gapRow(n)
    var prevS = new Array[Int](n + 1)
    var curS  = new Array[Int](n + 1)
    val sub   = new Array[Double](n + 1) // sub(q[i], d[*]), 1-based in j

    c.subRow(q(0), ds, curC)
    var j = 1
    while (j <= n) { curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
      if (abandoned(curC, n, delPrefix(i - 1), bound)) return null
      val t = prevC; prevC = curC; curC = t
      val ts = prevS; prevS = curS; curS = ts
      c.subRow(q(i - 1), ds, sub)
      val delQi = delQ(i); val freshTail = delPrefix(i - 1)
      j = 1
      while (j <= n) { cell(prevC, curC, prevS, curS, j, delQi, freshTail, insD(j), sub(j)); j += 1 }
      i += 1
    }
    wedArgmin(curC, curS, n, delPrefix(m), insD)
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

  /** A WED row, 1-based in j. Slot 0 holds `gap_1 = +inf` for [[cell]]. */
  private def gapRow(n: Int): Array[Double] = {
    val a = new Array[Double](n + 1)
    a(0) = Double.PositiveInfinity
    a
  }

  /** Eq. 7 at row `i >= 2`, column `j`: `C[i][j]` and its start `s[i][j]`,
    * given `insJ = ins(d[j])` and `subJ = sub(q[i], d[j])`. Either `q[i]` is
    * deleted after `C[i-1][j]`, or it is substituted for `d[j]` after the
    * gap, or after deleting the whole query prefix `q[1:i-1]` (`freshTail`).
    *
    * Row `i-1` turns into the gap row as the cells advance: on entry
    * `prevC(j-1)`/`prevS(j-1)` hold `gap_j` and its start, and on exit
    * `prevC(j)`/`prevS(j)` hold `gap_{j+1}`, once `C[i-1][j]` is read.
    */
  private def cell(prevC: Array[Double], curC: Array[Double], prevS: Array[Int], curS: Array[Int], j: Int,
                   delQi: Double, freshTail: Double, insJ: Double, subJ: Double): Unit = {
    val gap = prevC(j - 1)
    val delB = prevC(j) + delQi
    // Fresh start: delete the query prefix q[1:i-1] and open the window at
    // d[j]. Eq. 7 writes this only for j = 1, which loses the optimum when
    // deleting the query head is cheaper than substituting it and the best
    // window starts mid-trajectory (e.g. under ERP); the generalization keeps
    // O(1) per cell and restores agreement with min-window WED (which ExactS
    // computes). See DESIGN.md §3.
    val fresh = freshTail < gap
    val subB = (if (fresh) freshTail else gap) + subJ
    if (subB < delB) { curC(j) = subB; curS(j) = if (fresh) j else prevS(j - 1) }
    else             { curC(j) = delB; curS(j) = prevS(j) }
    val chain = gap + insJ
    if (chain <= prevC(j)) { prevC(j) = chain; prevS(j) = prevS(j - 1) }
  }

  /** The WED optimum: the cheapest cell of the last row, or the window that
    * substitutes nothing (delete all of `q`, insert the cheapest `d[j]`) if
    * that is strictly cheaper. The DP matches at least one pair; matching
    * none wins only under a model with `del(x) + ins(y) < sub(x, y)`, or by
    * rounding.
    */
  private def wedArgmin(c: Array[Double], s: Array[Int], n: Int, delAll: Double, insD: Array[Double]): SubtrajResult = {
    val best = argmin(c, s, n)
    var bj = 1; var j = 2
    while (j <= n) { if (insD(j) < insD(bj)) bj = j; j += 1 }
    val none = delAll + insD(bj)
    if (none < best.dist) SubtrajResult(bj, bj, none) else best
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
    * `>= bound`: both its smallest cell and `floor` reach `bound`. `floor` is
    * `del(q[1:i])` for the WED family, which no later fresh start and no
    * window that substitutes nothing undercuts, and `+inf` for DTW/FD.
    * `bound = +inf` or NaN never abandons.
    */
  private def abandoned(c: Array[Double], n: Int, floor: Double, bound: Double): Boolean =
    bound < Double.PositiveInfinity && floor >= bound && {
      var mn = c(1); var j = 2
      while (j <= n) { if (c(j) < mn) mn = c(j); j += 1 }
      mn >= bound
    }

  private def argmin(c: Array[Double], s: Array[Int], n: Int): SubtrajResult = {
    var bj = 1; var bd = c(1)
    var j = 2
    while (j <= n) { if (c(j) < bd) { bd = c(j); bj = j }; j += 1 }
    SubtrajResult(s(bj), bj, bd)
  }
}
