package repro.core

/** Incremental full-distance column: maintains `dist(q, seg)` while the data
  * segment `seg` grows one point at a time. `O(m)` time per [[extend]] and
  * `O(m)` memory, which is what makes ExactS `O(mn)` per start position and
  * the split-scan baselines (POS/PSS/RLS) `O(mn)` overall.
  *
  * Semantics per family (with `col(x) = dist(q[1:x], seg)`):
  *   - WED: Eq. 2 — empty segment costs `del(q[1:x])`, so [[dist]] is finite
  *     even before the first [[extend]].
  *   - DTW: Eq. 3 — undefined (infinite) on the empty segment.
  *   - FD : discrete Fréchet — undefined (infinite) on the empty segment.
  */
sealed trait PrefixDP[T] {
  /** Reset to the empty data segment. */
  def reset(): Unit
  /** Append `p` to the segment; returns the new `dist(q, seg)`. */
  def extend(p: T): Double
  /** Current `dist(q, seg)`. */
  def dist: Double
  /** Number of points in the current segment. */
  def len: Int
}

object PrefixDP {
  def apply[T](q: IndexedSeq[T], fn: DistFn[T]): PrefixDP[T] = fn match {
    case WedFn(_, c)        => new WedPrefixDP(q, c)
    case DtwFn(_, sub)      => new WarpPrefixDP(q, sub, frechet = false)
    case FrechetFn(_, sub)  => new WarpPrefixDP(q, sub, frechet = true)
  }

  private final class WedPrefixDP[T](q: IndexedSeq[T], c: WedCosts[T]) extends PrefixDP[T] {
    private val m = q.length
    private val delPrefix: Array[Double] = {
      val a = new Array[Double](m + 1)
      var x = 1
      while (x <= m) { a(x) = a(x - 1) + c.del(q(x - 1)); x += 1 }
      a
    }
    private var col = new Array[Double](m + 1)
    private var nxt = new Array[Double](m + 1)
    private var n   = 0
    reset()

    def reset(): Unit = { System.arraycopy(delPrefix, 0, col, 0, m + 1); n = 0 }

    def extend(p: T): Double = {
      val insP = c.ins(p)
      nxt(0) = col(0) + insP
      var x = 1
      while (x <= m) {
        val e = q(x - 1)
        var best = col(x - 1) + c.sub(e, p)
        val viaIns = col(x) + insP
        if (viaIns < best) best = viaIns
        val viaDel = nxt(x - 1) + c.del(e)
        if (viaDel < best) best = viaDel
        nxt(x) = best
        x += 1
      }
      val t = col; col = nxt; nxt = t
      n += 1
      col(m)
    }

    def dist: Double = col(m)
    def len: Int = n
  }

  /** Eq. 3 (DTW, `frechet = false`) and discrete Fréchet (`frechet = true`):
    * both take `min{col(x), col(x-1), nxt(x-1)}`; DTW adds `sub`, FD takes
    * `max{·, sub}`.
    */
  private final class WarpPrefixDP[T](q: IndexedSeq[T], sub: (T, T) => Double,
                                      frechet: Boolean) extends PrefixDP[T] {
    private val m = q.length
    private var col = new Array[Double](m + 1)
    private var nxt = new Array[Double](m + 1)
    private var n   = 0
    reset()

    def reset(): Unit = { java.util.Arrays.fill(col, Double.PositiveInfinity); n = 0 }

    private def combine(acc: Double, s: Double): Double =
      if (frechet) math.max(acc, s) else acc + s

    def extend(p: T): Double = {
      if (n == 0) {
        // dist(q[1:x], d[1:1]) combines sub(q[k], p) over k <= x (Eq. 3 base case)
        col(1) = sub(q(0), p)
        var x = 2
        while (x <= m) { col(x) = combine(col(x - 1), sub(q(x - 1), p)); x += 1 }
      } else {
        nxt(1) = combine(col(1), sub(q(0), p))
        var x = 2
        while (x <= m) {
          var best = col(x)
          if (col(x - 1) < best) best = col(x - 1)
          if (nxt(x - 1) < best) best = nxt(x - 1)
          nxt(x) = combine(best, sub(q(x - 1), p))
          x += 1
        }
        val t = col; col = nxt; nxt = t
      }
      n += 1
      col(m)
    }

    def dist: Double = if (n == 0) Double.PositiveInfinity else col(m)
    def len: Int = n
  }
}
