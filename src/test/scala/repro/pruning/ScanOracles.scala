package repro.pruning

import repro.core._

/** Reference versions of the pruning bounds, kept as test oracles: Theorem
  * B.1's per-point term through `fn.sub`, the unsampled KPF bound, the KPF
  * estimate that scans every data point for every key point, and GBP's close
  * count over a hash set of dilated data cells.
  */
object ScanOracles {

  /** `minCost(q[i], τd)` for one query point under `fn`. */
  def pointMinCost(qi: Point, d: IndexedSeq[Point], fn: DistFn[Point]): Double = {
    var minSub = Double.PositiveInfinity
    var j = 0
    while (j < d.length) { val s = fn.sub(qi, d(j)); if (s < minSub) minSub = s; j += 1 }
    fn match {
      case WedFn(_, c) => math.min(c.del(qi), minSub)
      case _           => minSub // DTW/FD deletion cost = sub with the matched point
    }
  }

  /** Exact (unsampled) lower bound `minCost(τq, τd)` of Theorem B.1. */
  def lowerBound(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point]): Double = fn match {
    case FrechetFn(_, _) =>
      var i = 0; var mx = 0.0
      while (i < q.length) { val c = pointMinCost(q(i), d, fn); if (c > mx) mx = c; i += 1 }
      mx
    case _ =>
      var i = 0; var sum = 0.0
      while (i < q.length) { sum += pointMinCost(q(i), d, fn); i += 1 }
      sum
  }

  /** The KPF estimate with `pointMinCost` (an m·n scan) for every key point:
    * `KPF.estimate` bit for bit for DTW, FD, ERP and EDR, which KPF bounds.
    */
  def estimate(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point], r: Double,
               stopAt: Double = Double.PositiveInfinity): Double = {
    val idx = KPF.keyPointIdx(q.length, r)
    fn match {
      case FrechetFn(_, _) =>
        var mx = 0.0; var k = 0
        while (k < idx.length && mx < stopAt) {
          val c = pointMinCost(q(idx(k)), d, fn); if (c > mx) mx = c; k += 1
        }
        mx
      case _ =>
        def scaled(s: Double) = if (idx.length == q.length) s else s * q.length / idx.length
        var sum = 0.0; var k = 0
        while (k < idx.length && scaled(sum) < stopAt) {
          sum += pointMinCost(q(idx(k)), d, fn); k += 1
        }
        scaled(sum)
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
           stats: Pruner.Stats): (IndexedSeq[Point], Double) => Boolean = {
    val qCells = GBP.queryCells(q, params.eps)
    (d, kth) => {
      stats.examined += 1
      if (params.useGBP && closeCount(qCells, d, params.eps) < params.mu * qCells.length) {
        stats.gbpPruned += 1; false
      } else if (kth < Double.PositiveInfinity &&
                 estimate(q.toIndexedSeq, d, fn, params.r) >= kth) {
        stats.kpfPruned += 1; false
      } else {
        stats.searched += 1; true
      }
    }
  }
}
