package repro.pruning

import repro.core._

import scala.collection.immutable.ArraySeq

/** Algorithm 3's pruning cascade over a database of data trajectories — GBP
  * gate, then KPF lower bound against the incumbent, then the search
  * algorithm itself — visited best-first: `search` hands the incumbent loop,
  * `TopK.searchBelow`, the trajectories GBP keeps in ascending KPF order.
  * Generic in the search algorithm so the efficiency table can run every
  * baseline through the identical cascade (as the paper does for Table 3).
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

  /** GBP→KPF key for query `q` (Algorithm 3 lines 8–12), counting examined
    * and GBP-cut trajectories into `stats`: `None` where GBP cuts a
    * trajectory, else its KPF estimate, which at `r = 1` lower-bounds the
    * trajectory's optimum (Theorem B.1). An empty query or a non-finite
    * query coordinate is rejected at once, and an empty data trajectory when
    * it is keyed, with `IllegalArgumentException`: a NaN key would sort last
    * and be searched without a word. The query's GBP cells are built only
    * when GBP runs.
    */
  def gate(q: Array[Point], fn: DistFn[Point], params: Params,
           stats: Stats = Stats()): IndexedSeq[Point] => Option[Double] = {
    require(q.nonEmpty, "queries must not be empty")
    require(q.forall(p => p.x.isFinite && p.y.isFinite), "query coordinates must be finite")
    val gbp: IndexedSeq[Point] => Boolean =
      if (params.useGBP) {
        val qCells = GBP.queryCells(q, params.eps)
        d => GBP.passes(qCells, d, params.eps, params.mu)
      } else _ => true
    val qIdx = ArraySeq.unsafeWrapArray(q)
    d => {
      require(d.nonEmpty, "data trajectories must not be empty")
      stats.examined += 1
      if (gbp(d)) Some(KPF.estimate(qIdx, d, fn, params.r))
      else { stats.gbpPruned += 1; None }
    }
  }

  /** Best hit over `data` for query `q` using `searchOne` on survivors: every
    * trajectory is keyed by `gate` first, so a bad query or trajectory fails
    * before any search; then the k = 1 `TopK.searchBelow` visits the
    * trajectories GBP keeps in ascending `(estimate, id)` order, and its
    * search answers `None` where the estimate reaches the threshold.
    * `Harness.table3` runs it in each Spark partition, over that
    * partition's trajectories.
    */
  def search(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
             params: Params,
             searchOne: (Array[Point], Array[Point]) => SubtrajResult,
             stats: Stats = Stats()): Option[TopK.Hit] = {
    val key = gate(q, fn, params, stats)
    val kept = data.flatMap { case (id, d) => key(ArraySeq.unsafeWrapArray(d)).map(e => (id, (e, d))) }
      .toSeq.sortBy { case (id, (e, _)) => (e, id) }(TopK.byBound)
    TopK.searchBelow(q, kept, 1, (a: Array[Point], ed: (Double, Array[Point]), kth: Double) =>
      if (ed._1 >= kth) { stats.kpfPruned += 1; None }
      else { stats.searched += 1; Some(searchOne(a, ed._2)) }).headOption
  }
}
