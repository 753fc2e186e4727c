package repro.pruning

import repro.core._

import scala.collection.immutable.ArraySeq

/** Algorithm 3's pruning cascade over a database of data trajectories — GBP
  * gate, then KPF lower-bound gate against the incumbent, then the search
  * algorithm itself: `search` folds the gate into the search it hands the
  * incumbent loop, `TopK.searchBelow`. Generic in the search algorithm so
  * the efficiency table can run every baseline through the identical
  * cascade (as the paper does for Table 3).
  */
object Pruner {

  /** Knobs of Appendix B/C; defaults mirror the paper's chosen values
    * (`mu = 0.4`, `r = 0.05`) with `eps` expressed in km (the paper's
    * `0.8e-4` is in degrees ≈ 0.9 km). Above `r = 1` KPF's estimate could
    * exceed the optimum, as key points would repeat.
    */
  final case class Params(eps: Double, mu: Double = 0.4, r: Double = 0.05,
                          useGBP: Boolean = true) {
    require(r > 0 && r <= 1, s"r must be in (0, 1], got $r")
    require(mu >= 0 && mu <= 1, s"mu must be in [0, 1], got $mu")
    require(eps > 0 && eps < Double.PositiveInfinity, s"eps must be finite and positive, got $eps")
  }

  final case class Stats(var examined: Int = 0, var gbpPruned: Int = 0,
                         var kpfPruned: Int = 0, var searched: Int = 0)

  /** GBP→KPF gate for query `q` (Algorithm 3 lines 8–12), counting into
    * `stats`. An empty data trajectory is rejected with
    * `IllegalArgumentException`, as every pairwise search rejects it. The
    * query's GBP cells are built only when GBP runs. KPF prunes against the
    * k-th best distance once k hits are held; at `r = 1` that is sound for
    * any k, because the bound lower-bounds the trajectory's own optimum
    * (Theorem B.1). The estimate stops summing once it reaches the k-th
    * best, which leaves every decision unchanged.
    */
  def gate(q: Array[Point], fn: DistFn[Point], params: Params,
           stats: Stats = Stats()): (IndexedSeq[Point], Double) => Boolean = {
    val gbp: IndexedSeq[Point] => Boolean =
      if (params.useGBP) {
        val qCells = GBP.queryCells(q, params.eps)
        d => GBP.passes(qCells, d, params.eps, params.mu)
      } else _ => true
    val qIdx = ArraySeq.unsafeWrapArray(q)
    (d, kth) => {
      require(d.nonEmpty, "data trajectories must not be empty")
      stats.examined += 1
      if (!gbp(d)) {
        stats.gbpPruned += 1; false
      } else if (kth < Double.PositiveInfinity &&
                 KPF.estimate(qIdx, d, fn, params.r, stopAt = kth) >= kth) {
        stats.kpfPruned += 1; false
      } else {
        stats.searched += 1; true
      }
    }
  }

  /** Best hit over `data` for query `q` using `searchOne` on survivors: the
    * k = 1 `TopK.searchBelow`, whose search answers `None` where `gate` cuts
    * (GBP even at `+inf`). `Harness.table3` runs it in each Spark partition,
    * over that partition's trajectories.
    */
  def search(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
             params: Params,
             searchOne: (Array[Point], Array[Point]) => SubtrajResult,
             stats: Stats = Stats()): Option[TopK.Hit] = {
    val g = gate(q, fn, params, stats)
    TopK.searchBelow(q, data, 1, (a: Array[Point], d: Array[Point], kth: Double) =>
      if (g(ArraySeq.unsafeWrapArray(d), kth)) Some(searchOne(a, d)) else None).headOption
  }
}
