package repro.pruning

import repro.core._

import scala.collection.immutable.ArraySeq

/** Algorithm 3's pruning cascade over a database of data trajectories — GBP
  * gate, then KPF lower-bound gate against the incumbent, then the search
  * algorithm itself. The incumbent loop is `TopK.search`; this object
  * supplies the gate. Generic in the search algorithm so the efficiency
  * table can run every baseline through the identical cascade (as the paper
  * does for Table 3).
  */
object Pruner {

  /** Knobs of Appendix B/C; defaults mirror the paper's chosen values
    * (`mu = 0.4`, `r = 0.05`) with `eps` expressed in km (the paper's
    * `0.8e-4` is in degrees ≈ 0.9 km).
    */
  final case class Params(eps: Double, mu: Double = 0.4, r: Double = 0.05,
                          useGBP: Boolean = true, useKPF: Boolean = true)

  final case class Stats(var examined: Int = 0, var gbpPruned: Int = 0,
                         var kpfPruned: Int = 0, var searched: Int = 0)

  /** GBP→KPF gate for query `q` (Algorithm 3 lines 8–12), counting into
    * `stats`. KPF prunes against the k-th best distance once k hits are held;
    * at `r = 1` that is sound for any k, because the bound lower-bounds the
    * trajectory's own optimum (Theorem B.1). The estimate stops summing once
    * it reaches the k-th best, which leaves every decision unchanged.
    */
  def gate(q: Array[Point], fn: DistFn[Point], params: Params,
           stats: Stats = Stats()): TopK.Gate[Point] = {
    val qCells = GBP.queryCells(q, params.eps)
    val qIdx = ArraySeq.unsafeWrapArray(q)
    (d, kth) => {
      stats.examined += 1
      if (params.useGBP && !GBP.passes(qCells, d, params.eps, params.mu)) {
        stats.gbpPruned += 1; false
      } else if (params.useKPF && kth < Double.PositiveInfinity &&
                 KPF.estimate(qIdx, d, fn, params.r, stopAt = kth) >= kth) {
        stats.kpfPruned += 1; false
      } else {
        stats.searched += 1; true
      }
    }
  }

  /** Best hit over `data` for query `q` using `searchOne` on survivors: the
    * k = 1 case of `TopK.search` behind `gate`. The first unpruned trajectory
    * seeds the incumbent; afterwards KPF prunes against its distance.
    */
  def search(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
             params: Params,
             searchOne: (Array[Point], Array[Point]) => SubtrajResult,
             stats: Stats = Stats()): Option[TopK.Hit] = {
    val wrapped = data.view.map { case (id, d) => (id, ArraySeq.unsafeWrapArray(d)) }
    // The loop hands `searchOne` back the wrappers made here.
    TopK.search[Point](ArraySeq.unsafeWrapArray(q), wrapped, 1,
      (_, d) => searchOne(q, d.asInstanceOf[ArraySeq.ofRef[Point]].unsafeArray),
      gate(q, fn, params, stats)).headOption
  }
}
