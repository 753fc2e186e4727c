package repro.core

/** Whole-trajectory distances (no free prefix/suffix): `dist(q, d)` for each
  * distance family, through [[PrefixDP]].
  */
object FullDist {

  /** `dist(q, d)` under `fn` in `O(mn)` time, `O(m)` memory. */
  def dist[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Double = {
    val dp = PrefixDP(q, fn)
    var j = 0
    while (j < d.length) { dp.extend(d(j)); j += 1 }
    dp.dist
  }
}
