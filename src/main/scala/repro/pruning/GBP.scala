package repro.pruning

import repro.core.Point

/** Grid-Based Pruning (Appendix B): divide the plane into `eps`-side square
  * cells; a query point is *close* to a data point iff its cell lies in the
  * 3×3 block around the data point's cell. A data trajectory survives iff at
  * least `mu * m` query points are close to it (Eq. 26/27).
  */
object GBP {

  /** Cell id of `p` (packed into a Long for cheap hashing). */
  def cell(p: Point, eps: Double): Long = {
    val cx = math.floor(p.x / eps).toLong
    val cy = math.floor(p.y / eps).toLong
    (cx << 32) ^ (cy & 0xffffffffL)
  }

  private def unpack(c: Long): (Long, Long) = (c >> 32, (c << 32) >> 32)

  /** The 3×3 dilation `B(·)` of a cell. */
  def dilate(c: Long): Array[Long] = {
    val (cx, cy) = unpack(c)
    val out = new Array[Long](9)
    var k = 0
    var dx = -1L
    while (dx <= 1) {
      var dy = -1L
      while (dy <= 1) {
        out(k) = ((cx + dx) << 32) ^ ((cy + dy) & 0xffffffffL)
        k += 1; dy += 1
      }
      dx += 1
    }
    out
  }

  /** Precomputed cells of the query points (reused across data trajectories). */
  def queryCells(q: Array[Point], eps: Double): Array[Long] = q.map(cell(_, eps))

  /** `close(τq, τd)` — number of query points close to the data trajectory.
    * `d` is any indexed sequence, so an array is wrapped without a copy.
    */
  def closeCount(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double): Int = {
    val dilated = new java.util.HashSet[java.lang.Long]()
    var j = 0
    while (j < d.length) {
      val cs = dilate(cell(d(j), eps))
      var k = 0
      while (k < 9) { dilated.add(cs(k)); k += 1 }
      j += 1
    }
    var cnt = 0
    var i = 0
    while (i < qCells.length) {
      if (dilated.contains(qCells(i))) cnt += 1
      i += 1
    }
    cnt
  }

  /** GBP gate: keep the trajectory iff `close >= mu * m`. */
  def passes(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double, mu: Double): Boolean =
    closeCount(qCells, d, eps) >= mu * qCells.length
}
