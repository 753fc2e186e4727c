package repro.baselines.rl

import repro.core._

import scala.util.Random

/** RLS and RLS-Skip (Wang et al. [26]): learning-based split search. The
  * scan skeleton is the same as POS (incremental [[PrefixDP]], `O(mn)`), but
  * the split decision is taken by a learned policy over a discretized state:
  *
  *   state = (bucketed cur/best ratio, bucketed segment-length/m ratio,
  *            improving-or-not trend)  → 4 × 4 × 2 = 32 states
  *   actions = {continue, split}        (RLS)
  *             {continue, split, skip}  (RLS-Skip: extend through the next
  *                                       point without evaluating a decision,
  *                                       trading quality for speed)
  *
  * Policies are trained offline per (workload, distance-function) on held-out
  * trajectory pairs with terminal reward `-(found / exact-optimal)`; training
  * time is excluded from the efficiency tables, as in the paper. A trained
  * policy is its [[QTable]]: its action count, 2 or 3, says which variant it is.
  */
object RLS {

  val NStates = 32

  private def stateOf(cur: Double, best: Double, segLen: Int, m: Int, improving: Boolean): Int = {
    val ratio = if (best.isInfinite || best <= 1e-12) 1.0 else cur / best
    val rb = if (ratio <= 1.0) 0 else if (ratio <= 1.5) 1 else if (ratio <= 3.0) 2 else 3
    val lr = segLen.toDouble / m
    val lb = if (lr <= 0.5) 0 else if (lr <= 1.0) 1 else if (lr <= 2.0) 2 else 3
    (rb * 4 + lb) * 2 + (if (improving) 1 else 0)
  }

  /** One scan of `d` under `policy`; `learn != null` enables training updates. */
  private def run[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T],
                     policy: QTable, learn: Random, eps: Double): SubtrajResult = {
    require(q.nonEmpty && d.nonEmpty, "RLS requires non-empty trajectories")
    val m = q.length; val n = d.length
    val dp = PrefixDP(q, fn)
    var s = 1
    var bestS = 1; var bestT = 1; var bestD = Double.PositiveInfinity
    var prev = Double.PositiveInfinity
    var pendingState = -1; var pendingAction = -1
    var skipNext = false
    var t = 1
    while (t <= n) {
      val cur = dp.extend(d(t - 1))
      val improvedGlobal = cur < bestD
      if (improvedGlobal) { bestD = cur; bestS = s; bestT = t }
      if (skipNext) {
        skipNext = false // skipped decision: pure extend, no policy work
      } else {
        val st = stateOf(cur, bestD, dp.len, m, cur < prev)
        if (learn != null && pendingState >= 0) {
          // Quality reward plus, for the skip variant, a small time bonus for
          // skipping — the efficiency term of RLS-Skip's reward in [26],
          // which is what makes it faster but less accurate than RLS.
          val reward = (if (improvedGlobal) 0.1 else 0.0) +
                       (if (pendingAction == 2) 0.06 else 0.0)
          policy.update(pendingState, pendingAction, reward, st, terminal = false)
        }
        val a =
          if (learn != null) policy.choose(st, eps, learn)
          else policy.bestAction(st)
        pendingState = st; pendingAction = a
        if (a == 1 && t < n) { // split: restart after the scan point
          s = t + 1
          dp.reset()
          prev = Double.PositiveInfinity
        } else {
          if (a == 2) skipNext = true
          prev = cur
        }
      }
      t += 1
    }
    if (learn != null && pendingState >= 0) {
      // Terminal reward: how close the episode got to the exact optimum.
      val opt = CMA.search(q, d, fn).dist
      val reward = if (bestD <= 1e-12) 1.0 else -(bestD / math.max(opt, 1e-9) - 1.0)
      policy.update(pendingState, pendingAction, reward, 0, terminal = true)
    }
    SubtrajResult(bestS, bestT, bestD)
  }

  /** Training passes over the pairs; pass `e` explores with probability 0.4 / (e + 1). */
  private final val Epochs = 3

  /** Train a policy on `pairs` of (query, data) trajectories; `skip = true`
    * enables the third action. Deterministic in `seed`.
    */
  def train[T](pairs: Seq[(IndexedSeq[T], IndexedSeq[T])], fn: DistFn[T],
               skip: Boolean, seed: Long): QTable = {
    val p = new QTable(NStates, if (skip) 3 else 2)
    val rnd = new Random(seed)
    var e = 0
    while (e < Epochs) {
      val eps = 0.4 / (e + 1)
      for ((q, d) <- pairs) run(q, d, fn, p, rnd, eps)
      e += 1
    }
    p
  }

  /** Greedy evaluation with a trained policy. */
  def search[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], policy: QTable): SubtrajResult =
    run(q, d, fn, policy, null, 0.0)
}
