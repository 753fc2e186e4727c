package repro.core

/** A 2-D trajectory sample point in planar coordinates (km). */
final case class Point(x: Double, y: Double) {
  /** Euclidean distance to `o`. */
  def distTo(o: Point): Double = {
    val dx = x - o.x; val dy = y - o.y
    math.sqrt(dx * dx + dy * dy)
  }
}

/** Row type for Spark `Dataset[Traj]`: a trajectory stored as parallel
  * coordinate arrays (product-encodable, compact in Tungsten rows). Made on
  * the driver or by a Spark task's deserializer, it rejects an empty or ragged
  * trajectory and a non-finite coordinate (`IllegalArgumentException`).
  */
final case class Traj(id: Long, xs: Array[Double], ys: Array[Double]) {
  require(xs.nonEmpty, "data trajectories must not be empty")
  require(xs.length == ys.length, "data trajectories must have as many ys as xs")
  require(allFinite, "data coordinates must be finite")

  def length: Int = xs.length

  /** One pass over the primitive arrays (`ArrayOps.forall` boxes each element). */
  private def allFinite: Boolean = {
    var i = 0
    while (i < xs.length && java.lang.Double.isFinite(xs(i)) && java.lang.Double.isFinite(ys(i))) i += 1
    i == xs.length
  }

  /** Materialize as an array of [[Point]]s for the per-trajectory algorithms. */
  def points: Array[Point] = Array.tabulate(xs.length)(k => Point(xs(k), ys(k)))
}

/** Parameters of the road-network trajectory generator `NetTrajGen` (see
  * DESIGN.md §5 for how these stand in for the paper's Porto / Xi'an /
  * Beijing datasets).
  *
  * @param lenMin  minimum trajectory length (points)
  * @param lenMax  maximum trajectory length (points)
  * @param width   bounding-box width (km)
  * @param height  bounding-box height (km)
  * @param stepKm  mean per-sample displacement (km)
  */
final case class TrajGenSpec(lenMin: Int, lenMax: Int,
                             width: Double, height: Double,
                             stepKm: Double)
