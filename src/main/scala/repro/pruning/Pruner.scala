package repro.pruning

import repro.core._

import scala.collection.immutable.ArraySeq

/** Algorithm 3's pruning cascade over a database of data trajectories — GBP
  * gate, then KPF lower bound against the incumbent, then the segment-box
  * bound, then the search algorithm itself — visited best-first: `search`
  * hands `TopK.bestFirst` the trajectories GBP keeps, keyed by a box form
  * of their KPF estimate and refined to the estimate only at the front of
  * the queue.
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

  /** A search's counts: every examined trajectory GBP does not cut is
    * searched, or cut by the segment bound or by KPF, so the KPF cuts are
    * what is left.
    */
  final case class Stats(var examined: Int = 0, var gbpPruned: Int = 0, var searched: Int = 0,
                         var segPruned: Int = 0) {
    def kpfPruned: Int = examined - gbpPruned - segPruned - searched
  }

  /** GBP→box key for query `q` (Algorithm 3 lines 8–12), counting examined
    * and GBP-cut trajectories into `stats`: `None` where GBP cuts a
    * trajectory, else KPF's combination over its key points with the
    * trajectory's bounding box in place of its points (`KPF.keyBound`),
    * which is `<=` `KPF.estimate` at the same `r`. The query is checked at
    * once (`KPF.requireQuery`); an empty data trajectory, or one with a
    * non-finite coordinate, is rejected with `IllegalArgumentException` when
    * it is keyed, in the pass that builds its box. The query's GBP cells
    * are built only when GBP runs.
    */
  def gate(q: Array[Point], fn: DistFn[Point], params: Params,
           stats: Stats = Stats()): IndexedSeq[Point] => Option[Double] = {
    KPF.requireQuery(q)
    val qCells = if (params.useGBP) Some(GBP.queryCells(q, params.eps)) else None
    val qIdx = ArraySeq.unsafeWrapArray(q)
    val keys = KPF.keyPointIdx(q.length, params.r)
    d => {
      require(d.nonEmpty, "data trajectories must not be empty")
      val box = KPF.Box.of(d, 0, d.length)
      stats.examined += 1
      if (qCells.forall(GBP.passes(_, d, params.eps, params.mu))) Some(KPF.keyBound(qIdx, fn, keys, box))
      else { stats.gbpPruned += 1; None }
    }
  }

  /** Best hit over `data` for query `q`: `TopK.bestFirst` at k = 1, keyed
    * by `gate` and refined by `KPF.estimate`, so the searches are those of
    * a scan in `(estimate, id)` order. Below a finite threshold
    * `KPF.segBound` runs before `searchOne`, and a trajectory it proves no
    * closer is cut. `Harness.table3` runs it in each Spark partition, over
    * that partition's trajectories.
    */
  def search(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
             params: Params,
             searchOne: (Array[Point], Array[Point]) => SubtrajResult,
             stats: Stats = Stats()): Option[TopK.Hit] = {
    val qIdx = ArraySeq.unsafeWrapArray(q)
    TopK.bestFirst(q, data, 1, gate(q, fn, params, stats).compose(ArraySeq.unsafeWrapArray[Point]),
      (a: Array[Point], d: Array[Point], threshold: Double) =>
        if (threshold < Double.PositiveInfinity &&
            KPF.segBound(qIdx, ArraySeq.unsafeWrapArray(d), fn, threshold) >= threshold) { stats.segPruned += 1; None }
        else { stats.searched += 1; Some(searchOne(a, d)) },
      Some((d: Array[Point]) => KPF.estimate(qIdx, ArraySeq.unsafeWrapArray(d), fn, params.r))).headOption
  }
}
