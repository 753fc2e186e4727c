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

  /** The 3×3 dilation `B(·)` of a cell. */
  def dilate(c: Long): Array[Long] = {
    val cx = c >> 32; val cy = (c << 32) >> 32
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
    * A query cell lies in the 3×3 block of a data cell iff that data cell
    * lies in the query cell's block, so the count probes each query cell's
    * block against the trajectory's sorted cells.
    */
  def closeCount(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double): Int = {
    val cells = new Array[Long](d.length)
    var j = 0
    while (j < d.length) { cells(j) = cell(d(j), eps); j += 1 }
    java.util.Arrays.sort(cells)
    var cnt = 0
    var i = 0
    while (i < qCells.length) {
      val block = dilate(qCells(i))
      var k = 0
      while (k < 9 && java.util.Arrays.binarySearch(cells, block(k)) < 0) k += 1
      if (k < 9) cnt += 1
      i += 1
    }
    cnt
  }

  /** GBP gate: keep the trajectory iff `close >= mu * m`. */
  def passes(qCells: Array[Long], d: collection.IndexedSeq[Point], eps: Double, mu: Double): Boolean =
    closeCount(qCells, d, eps) >= mu * qCells.length
}
