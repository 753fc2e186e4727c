package repro.pruning

import repro.core.Point

/** Exact nearest-neighbour queries over one data trajectory's points, on a
  * uniform grid of square cells bucketed by a counting sort.
  *
  * `nearest(qx, qy)` equals `min_j Point(qx, qy).distTo(d(j))` bit for bit:
  * it evaluates the same expression on a candidate set that provably holds
  * the minimum, and a minimum of values does not depend on the order they
  * are visited in. Cells are visited in square rings of growing Chebyshev
  * radius around the query's cell. A point outside rings `0..r` lies more
  * than `r` cells from the query along some axis, so after ring `r` the walk
  * stops once the best distance is below `r · cell`, shrunk by a relative
  * margin far wider than the rounding of the cell arithmetic (the per-axis
  * cell count is capped so that stays true). Every point sits in the cell
  * its coordinates give; nothing is clamped.
  *
  * Build with `PointGrid(d)`, which needs finite coordinates. Query points
  * that are not finite, or too far away for an `Int` cell index, are
  * answered by scanning all points.
  */
final class PointGrid private (ox: Double, oy: Double, cell: Double, nx: Int, ny: Int,
                               start: Array[Int], xs: Array[Double], ys: Array[Double]) {

  /** `min_j distTo` over the points. */
  def nearest(qx: Double, qy: Double): Double = walk(qx, qy, Double.NaN)

  /** Whether some point is within `eps` (`distTo <= eps`) of the query. */
  def within(qx: Double, qy: Double, eps: Double): Boolean = walk(qx, qy, eps) <= eps

  private def dist(qx: Double, qy: Double, k: Int): Double = {
    val dx = qx - xs(k); val dy = qy - ys(k)
    math.sqrt(dx * dx + dy * dy)
  }

  /** Minimum of `best` and the distances to points `k0 until k1`. */
  private def run(qx: Double, qy: Double, k0: Int, k1: Int, best: Double): Double = {
    var b = best
    var k = k0
    while (k < k1) { val s = dist(qx, qy, k); if (s < b) b = s; k += 1 }
    b
  }

  /** Minimum of `best` and the distances to the points of cells `c0..c1`
    * of one row (contiguous, as cells are numbered row by row).
    */
  private def cells(qx: Double, qy: Double, c0: Int, c1: Int, best: Double): Double =
    run(qx, qy, start(c0), start(c1 + 1), best)

  /** Ring walk returning the minimum distance over the points it visits. It
    * visits every point that could beat that minimum, so without `eps` (NaN)
    * the result is the exact nearest distance. With `eps` it may also stop at
    * the first ring holding a point within `eps`, or once no unvisited point
    * can be within `eps`; `result <= eps` then still decides as the exact
    * minimum would.
    */
  private def walk(qx: Double, qy: Double, eps: Double): Double = {
    val ux = (qx - ox) / cell; val uy = (qy - oy) / cell
    if (!(math.abs(ux) < PointGrid.MaxReach && math.abs(uy) < PointGrid.MaxReach))
      return run(qx, qy, 0, xs.length, Double.PositiveInfinity) // scan all points
    val cx = math.floor(ux).toInt; val cy = math.floor(uy).toInt
    var best = Double.PositiveInfinity
    // Rings below the Chebyshev distance from the query's cell to the grid are empty.
    var r = math.max(math.max(-cx, cx - (nx - 1)), math.max(math.max(-cy, cy - (ny - 1)), 0))
    while (true) {
      // Ring r clipped to the grid: its bottom and top rows, then its side columns.
      val x0 = math.max(cx - r, 0); val x1 = math.min(cx + r, nx - 1)
      if (cy - r >= 0) best = cells(qx, qy, (cy - r) * nx + x0, (cy - r) * nx + x1, best)
      if (r > 0 && cy + r < ny) best = cells(qx, qy, (cy + r) * nx + x0, (cy + r) * nx + x1, best)
      if (r > 0) {
        var y = math.max(cy - r + 1, 0); val y1 = math.min(cy + r - 1, ny - 1)
        while (y <= y1) {
          if (cx - r >= 0) best = cells(qx, qy, y * nx + cx - r, y * nx + cx - r, best)
          if (cx + r < nx) best = cells(qx, qy, y * nx + cx + r, y * nx + cx + r, best)
          y += 1
        }
      }
      if (best <= eps) return best
      if (cx - r <= 0 && cy - r <= 0 && cx + r >= nx - 1 && cy + r >= ny - 1) return best
      // Every unvisited point is more than r cells away along some axis.
      val reach = r * cell * PointGrid.Margin
      if (best < reach || eps < reach) return best
      r += 1
    }
    best
  }
}

object PointGrid {

  /** Relative safety margin on the ring radius `r >= 1`. A cell offset is
    * rounded by about 2e-16 of itself. A data point's offset is at most
    * `MaxAxis` cells; a query point's is within `max(nx, ny)` cells of the
    * radius of any ring the walk reaches. The rounding therefore stays
    * below 1e-10 of the radius.
    */
  private val Margin = 1 - 1e-9
  private val MaxAxis = 1 << 16
  /** Farthest query offset, in cells, that the walk handles; keeps ring
    * indices inside `Int`.
    */
  private val MaxReach = (1 << 28).toDouble

  /** Grid over `d`, about one cell per point and at most `3n + 1` cells; `None`
    * when `d` is empty or has a coordinate that is not finite, or when its
    * bounding box overflows.
    */
  def apply(d: collection.IndexedSeq[Point]): Option[PointGrid] = {
    val n = d.length
    var minX = Double.PositiveInfinity; var minY = Double.PositiveInfinity
    var maxX = Double.NegativeInfinity; var maxY = Double.NegativeInfinity
    var j = 0
    while (j < n) {
      val p = d(j)
      if (p.x.isNaN || p.y.isNaN) return None
      if (p.x < minX) minX = p.x; if (p.x > maxX) maxX = p.x
      if (p.y < minY) minY = p.y; if (p.y > maxY) maxY = p.y
      j += 1
    }
    val w = maxX - minX; val h = maxY - minY
    // False for n = 0, an infinite coordinate and an overflowing box.
    if (!(w >= 0 && h >= 0 && w < Double.PositiveInfinity && h < Double.PositiveInfinity)) return None
    // Infinite when w * h overflows: then every point shares one cell.
    val side = math.max(math.sqrt(w * h / n), math.max(w, h) / math.min(n, MaxAxis))
    val cell = if (side >= java.lang.Double.MIN_NORMAL) side else 1.0
    val nx = math.floor((maxX - minX) / cell).toInt + 1
    val ny = math.floor((maxY - minY) / cell).toInt + 1
    // Counting sort by cell: count, prefix-sum to cell ends, then place each
    // point at its cell's end minus one, which leaves start(c) at cell c's start.
    val cellOf = new Array[Int](n)
    val start = new Array[Int](nx * ny + 1)
    j = 0
    while (j < n) {
      val p = d(j)
      val c = math.floor((p.y - minY) / cell).toInt * nx + math.floor((p.x - minX) / cell).toInt
      cellOf(j) = c; start(c) += 1
      j += 1
    }
    var c = 1
    while (c <= nx * ny) { start(c) += start(c - 1); c += 1 }
    val xs = new Array[Double](n); val ys = new Array[Double](n)
    j = 0
    while (j < n) {
      val k = start(cellOf(j)) - 1; start(cellOf(j)) = k
      xs(k) = d(j).x; ys(k) = d(j).y
      j += 1
    }
    Some(new PointGrid(minX, minY, cell, nx, ny, start, xs, ys))
  }
}
