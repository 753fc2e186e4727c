package repro.core

/** Independent full-matrix implementations of Eq. 2 (WED), Eq. 3 (DTW) and
  * discrete Fréchet over (m+1)×(n+1) tables: the test oracle that
  * `FullDist.dist` and `PrefixDP` are checked against.
  */
object ReferenceDist {

  /** Eq. 2 — classic WED table over (m+1)×(n+1). */
  def wed[T](q: IndexedSeq[T], d: IndexedSeq[T], c: WedCosts[T]): Double = {
    val m = q.length; val n = d.length
    val M = Array.ofDim[Double](m + 1, n + 1)
    for (i <- 1 to m) M(i)(0) = M(i - 1)(0) + c.del(q(i - 1))
    for (j <- 1 to n) M(0)(j) = M(0)(j - 1) + c.ins(d(j - 1))
    for (i <- 1 to m; j <- 1 to n) {
      M(i)(j) = math.min(
        M(i - 1)(j - 1) + c.sub(q(i - 1), d(j - 1)),
        math.min(M(i)(j - 1) + c.ins(d(j - 1)), M(i - 1)(j) + c.del(q(i - 1))))
    }
    M(m)(n)
  }

  /** Eq. 3 — classic DTW table (undefined on empty inputs). */
  def dtw[T](q: IndexedSeq[T], d: IndexedSeq[T], sub: (T, T) => Double): Double = {
    val m = q.length; val n = d.length
    require(m > 0 && n > 0, "dtw undefined on empty trajectories")
    val M = Array.ofDim[Double](m + 1, n + 1)
    M(1)(1) = sub(q(0), d(0))
    for (j <- 2 to n) M(1)(j) = M(1)(j - 1) + sub(q(0), d(j - 1))
    for (i <- 2 to m) M(i)(1) = M(i - 1)(1) + sub(q(i - 1), d(0))
    for (i <- 2 to m; j <- 2 to n) {
      M(i)(j) = math.min(M(i - 1)(j), math.min(M(i)(j - 1), M(i - 1)(j - 1))) +
        sub(q(i - 1), d(j - 1))
    }
    M(m)(n)
  }

  /** Discrete Fréchet distance (coupling must align both endpoints). */
  def frechet[T](q: IndexedSeq[T], d: IndexedSeq[T], sub: (T, T) => Double): Double = {
    val m = q.length; val n = d.length
    require(m > 0 && n > 0, "frechet undefined on empty trajectories")
    val M = Array.ofDim[Double](m + 1, n + 1)
    M(1)(1) = sub(q(0), d(0))
    for (j <- 2 to n) M(1)(j) = math.max(M(1)(j - 1), sub(q(0), d(j - 1)))
    for (i <- 2 to m) M(i)(1) = math.max(M(i - 1)(1), sub(q(i - 1), d(0)))
    for (i <- 2 to m; j <- 2 to n) {
      val best = math.min(M(i - 1)(j), math.min(M(i)(j - 1), M(i - 1)(j - 1)))
      M(i)(j) = math.max(best, sub(q(i - 1), d(j - 1)))
    }
    M(m)(n)
  }

  def dist[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Double = fn match {
    case WedFn(_, c)       => wed(q, d, c)
    case DtwFn(_, s)       => dtw(q, d, s)
    case FrechetFn(_, s)   => frechet(q, d, s)
  }
}
