package repro.pruning

import repro.core._

/** Reference versions of the pruning bounds, kept as test oracles: Theorem
  * B.1's per-point term through `fn.sub`, the unsampled KPF bound, the KPF
  * estimate that scans every data point for every key point, and GBP's close
  * count over a hash set of dilated data cells; and the two orders of the
  * pruned search: best-first, as `Pruner.search` visits, and id order.
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
  def estimate(q: IndexedSeq[Point], d: IndexedSeq[Point], fn: DistFn[Point], r: Double): Double = {
    val idx = KPF.keyPointIdx(q.length, r)
    val terms = idx.map(i => pointMinCost(q(i), d, fn))
    fn match {
      case FrechetFn(_, _) => terms.foldLeft(0.0)((mx, c) => if (c > mx) c else mx)
      case _ =>
        val sum = terms.foldLeft(0.0)(_ + _)
        if (idx.length == q.length) sum else sum * q.length / idx.length
    }
  }

  /** `GBP.closeCount` over a `HashSet` of the 9·n dilated data cells. */
  def closeCount(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double): Int = {
    val dilated = new java.util.HashSet[java.lang.Long]()
    for (p <- d; c <- GBP.dilate(GBP.cell(p, eps))) dilated.add(c)
    qCells.count(c => dilated.contains(c))
  }

  /** `Pruner.gate`'s key with GBP's hash-set close count and the scanned
    * KPF estimate.
    */
  def key(q: Array[Point], fn: DistFn[Point], params: Pruner.Params,
          stats: Pruner.Stats): IndexedSeq[Point] => Option[Double] = {
    val qCells = GBP.queryCells(q, params.eps)
    d => {
      stats.examined += 1
      if (params.useGBP && closeCount(qCells, d, params.eps) < params.mu * qCells.length) {
        stats.gbpPruned += 1; None
      } else Some(estimate(q.toIndexedSeq, d, fn, params.r))
    }
  }

  /** Best-first top-k (Seidl & Kriegel's multi-step k-NN): every trajectory
    * keyed first (`None` drops it), the rest visited by `TopK.searchBelow`
    * in ascending `(key, id)` order, each searched in full by CMA unless its
    * key reaches the threshold it is handed. At k = 1 this is
    * `Pruner.search`'s cascade.
    */
  def bestFirst(q: Array[Point], data: Seq[(Long, IndexedSeq[Point])], k: Int,
                key: IndexedSeq[Point] => Option[Double], fn: DistFn[Point],
                stats: Pruner.Stats): Array[TopK.Hit] = {
    val keyed = data.flatMap { case (id, d) => key(d).map(e => (e, id, d)) }
      .sortBy { case (e, id, _) => (e, id) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long))
    TopK.searchBelow(q.toIndexedSeq, keyed.map { case (e, id, d) => (id, (e, d)) }, k,
      (a: IndexedSeq[Point], ed: (Double, IndexedSeq[Point]), kth: Double) =>
        if (ed._1 >= kth) None
        else { stats.searched += 1; Some(CMA.search(a, ed._2, fn)) })
  }

  /** Algorithm 3 as the paper visits: `key`'s GBP cut, then in id order a
    * trajectory is cut once k hits are held and its key reaches the k-th
    * best.
    */
  def idOrder(q: Array[Point], data: Seq[(Long, IndexedSeq[Point])], k: Int,
              key: IndexedSeq[Point] => Option[Double], fn: DistFn[Point],
              stats: Pruner.Stats): Array[TopK.Hit] =
    TopK.searchBelow(q.toIndexedSeq, data.sortBy(_._1), k, (a: IndexedSeq[Point], d: IndexedSeq[Point], kth: Double) =>
      key(d).flatMap { e =>
        if (e >= kth) None
        else { stats.searched += 1; Some(CMA.search(a, d, fn)) }
      })
}
