package repro.baselines

import repro.core._

/** Splitting-based approximate searches POS and PSS (Wang et al. [26]).
  *
  * Both scan the data trajectory once, maintaining the incremental distance
  * between the query and the current candidate segment `τd[s:t]` via
  * [[PrefixDP]] (`O(m)` per point, `O(mn)` overall), and heuristically decide
  * at each point whether to *split* — abandon the current segment and restart
  * at the scan position. Reimplemented from the description in this paper's
  * §3.1/§6.1 (the original code is RL-framework C++ we do not have):
  *
  *   - POS ("prefix-only"): a single candidate segment; split when extending
  *     stopped improving and a fresh start at the current point looks locally
  *     better (an O(1) signal, keeping POS the fastest baseline).
  *   - PSS: additionally consults a precomputed suffix-distance table
  *     `dist(q, d[t:n])` (backward DP, `O(mn)` once) and keeps a beam of two
  *     candidate segments (the incumbent and the best recent restart) —
  *     better quality than POS at roughly twice the cost, matching the
  *     paper's quality/efficiency ordering.
  *
  * Every candidate segment starts from a fresh or reset `PrefixDP` at its own
  * start, so the best distance the scan saw is the interval's full distance.
  */
object SplitSearch {

  /** POS: prefix-only greedy split scan. */
  def pos[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "POS requires non-empty trajectories")
    val n = d.length
    val dp = PrefixDP(q, fn)
    var s = 1
    var bestS = 1; var bestT = 1; var bestD = Double.PositiveInfinity
    var prev = Double.PositiveInfinity
    var t = 1
    while (t <= n) {
      val cur = dp.extend(d(t - 1))
      if (cur < bestD) { bestD = cur; bestS = s; bestT = t }
      // O(1) split signal: extension got worse and the scan point itself is a
      // promising restart anchor for q's head.
      if (t < n && cur >= prev && fn.sub(q.head, d(t)) * q.length < cur) {
        s = t + 1
        dp.reset()
        prev = Double.PositiveInfinity
      } else prev = cur
      t += 1
    }
    SubtrajResult(bestS, bestT, bestD)
  }

  /** PSS: beam of two candidate segments plus suffix-distance guidance. */
  def pss[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "PSS requires non-empty trajectories")
    val n = d.length
    // suffix(t) = dist(q, d[t:n]) via the reversal symmetry of WED/DTW/FD.
    val suffix = suffixDists(q, d, fn)

    final class Cand(var s: Int, val dp: PrefixDP[T], var cur: Double)
    var a = new Cand(1, PrefixDP(q, fn), Double.PositiveInfinity) // incumbent
    var b: Cand = null                                            // recent restart
    var bestS = 1; var bestT = 1; var bestD = Double.PositiveInfinity

    var t = 1
    while (t <= n) {
      a.cur = a.dp.extend(d(t - 1))
      if (a.cur < bestD) { bestD = a.cur; bestS = a.s; bestT = t }
      if (b != null) {
        b.cur = b.dp.extend(d(t - 1))
        if (b.cur < bestD) { bestD = b.cur; bestS = b.s; bestT = t }
        if (b.cur < a.cur) { a = b; b = null } // restart took over
        else if (b.cur > a.cur + fn.sub(q.head, d(t - 1)) * q.length) b = null
      }
      // Suffix-guided split: if what remains after t is closer to q than the
      // remainder seen from the incumbent start, spawn a restart candidate.
      if (b == null && t < n && a.cur >= bestD && suffix(t + 1) < suffix(a.s)) {
        b = new Cand(t + 1, PrefixDP(q, fn), Double.PositiveInfinity)
      }
      t += 1
    }
    SubtrajResult(bestS, bestT, bestD)
  }

  /** `suffix(t) = dist(q, d[t:n])` for all t, computed in one backward
    * `O(mn)` pass (WED/DTW/FD are invariant under reversing both inputs).
    */
  def suffixDists[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Array[Double] = {
    val n = d.length
    val out = new Array[Double](n + 2)
    out(n + 1) = Double.PositiveInfinity
    val dp = PrefixDP(q.reverse, fn)
    var t = n
    while (t >= 1) { out(t) = dp.extend(d(t - 1)); t -= 1 }
    out
  }
}
