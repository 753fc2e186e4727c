package repro.core

/** Result of a subtrajectory search: the optimal `τd[start:end]` (1-based,
  * inclusive) and its distance to the query trajectory.
  */
final case class SubtrajResult(start: Int, end: Int, dist: Double) {
  require(start >= 1 && end >= start, s"invalid interval [$start,$end]")
  def length: Int = end - start + 1
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
  */
object CMA {

  /** Search the optimal subtrajectory of `d` for query `q` under `fn`. */
  def search[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "CMA requires non-empty trajectories")
    fn match {
      case WedFn(_, c)       => searchWed(q, d, c)
      case DtwFn(_, sub)     => searchSum(q, d, sub, frechet = false)
      case FrechetFn(_, sub) => searchSum(q, d, sub, frechet = true)
    }
  }

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
  private def searchWed[T](q: IndexedSeq[T], d: IndexedSeq[T], c: WedCosts[T]): SubtrajResult = {
    val m = q.length; val n = d.length
    var prevC = new Array[Double](n + 1) // C[i-1][*], 1-based in j
    var curC  = new Array[Double](n + 1)
    var prevS = new Array[Int](n + 1)    // start index s[i-1][*]
    var curS  = new Array[Int](n + 1)

    // delQ(i) = del(q[i]); delPrefix(i) = del(q[1:i])
    val delQ = new Array[Double](m + 1)
    val delPrefix = new Array[Double](m + 1)
    var i = 1
    while (i <= m) { delQ(i) = c.del(q(i - 1)); delPrefix(i) = delPrefix(i - 1) + delQ(i); i += 1 }

    // insD(j) = ins(d[j])
    val insD = new Array[Double](n + 1)
    var j = 1
    while (j <= n) { insD(j) = c.ins(d(j - 1)); j += 1 }

    // i = 1: C[1][j] = sub(q1, dj), s[1][j] = j
    j = 1
    while (j <= n) { curC(j) = c.sub(q(0), d(j - 1)); curS(j) = j; j += 1 }

    i = 2
    while (i <= m) {
      var t = prevC; prevC = curC; curC = t
      var ts = prevS; prevS = curS; curS = ts
      val qi = q(i - 1)
      val delQi = delQ(i)
      var subPrev = c.sub(qi, d(0)) // sub(qi, d[j-1]) for the next column j

      // j = 1: delete qi (q[i-1] also matched d1), or substitute qi for d1
      // after deleting the whole query prefix q[1:i-1].
      val a1 = prevC(1) + delQi
      val b1 = subPrev + delPrefix(i - 1)
      if (a1 <= b1) { curC(1) = a1; curS(1) = prevS(1) }
      else          { curC(1) = b1; curS(1) = 1 }

      val freshTail = delPrefix(i - 1)
      j = 2
      while (j <= n) {
        val subJ = c.sub(qi, d(j - 1))
        val delB = prevC(j) + delQi                                 // delete qi
        val insB = curC(j - 1) + insD(j - 1) - subPrev + subJ       // ins-chain
        val subB = prevC(j - 1) + subJ                              // substitute
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
        subPrev = subJ
        j += 1
      }
      i += 1
    }
    argmin(curC, curS, n)
  }

  /** Eq. 8 (DTW, `frechet=false`) and Eq. 9 (FD, `frechet=true`): both share
    * the `min{C[i-1][j], C[i][j-1], C[i-1][j-1]}` cell dependency; DTW adds
    * `sub`, FD takes `max{·, sub}`.
    */
  private def searchSum[T](q: IndexedSeq[T], d: IndexedSeq[T],
                           sub: (T, T) => Double, frechet: Boolean): SubtrajResult = {
    val m = q.length; val n = d.length
    var prevC = new Array[Double](n + 1)
    var curC  = new Array[Double](n + 1)
    var prevS = new Array[Int](n + 1)
    var curS  = new Array[Int](n + 1)

    var j = 1
    while (j <= n) { curC(j) = sub(q(0), d(j - 1)); curS(j) = j; j += 1 }

    var i = 2
    while (i <= m) {
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

  private def argmin(c: Array[Double], s: Array[Int], n: Int): SubtrajResult = {
    var bj = 1; var bd = c(1)
    var j = 2
    while (j <= n) { if (c(j) < bd) { bd = c(j); bj = j }; j += 1 }
    SubtrajResult(s(bj), bj, bd)
  }
}
