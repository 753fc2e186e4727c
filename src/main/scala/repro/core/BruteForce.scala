package repro.core

/** Exhaustive `O(mn³)` search — the test-only ground truth the paper uses to
  * frame the problem (§1 "Challenges"): evaluate the full distance for every
  * one of the n(n+1)/2 subtrajectories.
  */
object BruteForce {

  /** Optimal subtrajectory by exhaustive enumeration (ties: smallest start,
    * then smallest end).
    */
  def search[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): SubtrajResult = {
    val n = d.length
    var best: SubtrajResult = null
    var i = 1
    while (i <= n) {
      var j = i
      while (j <= n) {
        val dist = FullDist.dist(q, d.slice(i - 1, j), fn)
        if (best == null || dist < best.dist - 1e-12) best = SubtrajResult(i, j, dist)
        j += 1
      }
      i += 1
    }
    best
  }
}
