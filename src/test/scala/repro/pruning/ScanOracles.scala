package repro.pruning

import repro.core._

/** Reference versions of the pruning bounds, kept as test oracles: the KPF
  * estimate that scans every data point for every key point, and GBP's close
  * count over a hash set of dilated data cells.
  */
object ScanOracles {

  /** `KPF.estimate` with `KPF.pointMinCost` (an m·n scan) for every key point. */
  def estimate[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], r: Double,
                  stopAt: Double = Double.PositiveInfinity): Double = {
    val idx = KPF.keyPointIdx(q.length, r)
    fn match {
      case FrechetFn(_, _) =>
        var mx = 0.0; var k = 0
        while (k < idx.length && mx < stopAt) {
          val c = KPF.pointMinCost(q(idx(k)), d, fn); if (c > mx) mx = c; k += 1
        }
        mx
      case _ =>
        var sum = 0.0; var k = 0
        while (k < idx.length && sum * q.length / idx.length < stopAt) {
          sum += KPF.pointMinCost(q(idx(k)), d, fn); k += 1
        }
        sum * q.length / idx.length
    }
  }

  /** `GBP.closeCount` over a `HashSet` of the 9·n dilated data cells. */
  def closeCount(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double): Int = {
    val dilated = new java.util.HashSet[java.lang.Long]()
    for (p <- d; c <- GBP.dilate(GBP.cell(p, eps))) dilated.add(c)
    qCells.count(c => dilated.contains(c))
  }

  /** `Pruner.gate` with the scanned, never early-stopped KPF estimate. */
  def gate(q: Array[Point], fn: DistFn[Point], params: Pruner.Params,
           stats: Pruner.Stats): TopK.Gate[Point] = {
    val qCells = GBP.queryCells(q, params.eps)
    (d, kth) => {
      stats.examined += 1
      if (params.useGBP && closeCount(qCells, d, params.eps) < params.mu * qCells.length) {
        stats.gbpPruned += 1; false
      } else if (params.useKPF && kth < Double.PositiveInfinity &&
                 estimate(q.toIndexedSeq, d, fn, params.r) >= kth) {
        stats.kpfPruned += 1; false
      } else {
        stats.searched += 1; true
      }
    }
  }
}
