package repro.core

import scala.util.Random

/** A 2-D trajectory sample point in planar coordinates (km). */
final case class Point(x: Double, y: Double) {
  /** Euclidean distance to `o`. */
  def distTo(o: Point): Double = {
    val dx = x - o.x; val dy = y - o.y
    math.sqrt(dx * dx + dy * dy)
  }
}

/** Row type for Spark `Dataset[Traj]`: a trajectory stored as parallel
  * coordinate arrays (product-encodable, compact in Tungsten rows).
  */
final case class Traj(id: Long, xs: Array[Double], ys: Array[Double]) {
  def length: Int = xs.length

  /** Materialize as an array of [[Point]]s for the per-trajectory algorithms. */
  def points: Array[Point] = Array.tabulate(xs.length)(k => Point(xs(k), ys(k)))
}

/** Parameters of the random-walk trajectory generator (see DESIGN.md §5 for
  * how these stand in for the paper's Porto / Xi'an / Beijing datasets).
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

/** Deterministic trajectory generator: a bounded random walk with heading
  * momentum. `gen(id, spec, seed)` is a pure function of its arguments, so
  * driver-side and executor-side generation agree exactly.
  */
object TrajGen {

  private def rng(seed: Long, id: Long): Random =
    new Random(seed * 0x9E3779B97F4A7C15L + id * 0xBF58476D1CE4E5B9L + 17L)

  /** Generate trajectory `id` under `spec`. */
  def gen(id: Long, spec: TrajGenSpec, seed: Long): Traj = {
    val r   = rng(seed, id)
    val len = spec.lenMin + r.nextInt(spec.lenMax - spec.lenMin + 1)
    val xs  = new Array[Double](len)
    val ys  = new Array[Double](len)
    var x = r.nextDouble() * spec.width
    var y = r.nextDouble() * spec.height
    var heading = r.nextDouble() * 2 * math.Pi
    var k = 0
    while (k < len) {
      xs(k) = x; ys(k) = y
      heading += r.nextGaussian() * 0.35
      val step = spec.stepKm * (0.6 + 0.8 * r.nextDouble())
      x += step * math.cos(heading)
      y += step * math.sin(heading)
      // Reflect at the bounding box so walks stay inside the city extent.
      if (x < 0) { x = -x; heading = math.Pi - heading }
      if (x > spec.width) { x = 2 * spec.width - x; heading = math.Pi - heading }
      if (y < 0) { y = -y; heading = -heading }
      if (y > spec.height) { y = 2 * spec.height - y; heading = -heading }
      k += 1
    }
    Traj(id, xs, ys)
  }

  /** Perturb `pts` with Gaussian noise of std `sigma`, replacing each point
    * with probability `outlierProb` by a point displaced by `outlierDist`
    * (a synthetic GPS glitch — keeps EDR optima strictly positive).
    */
  def perturb(pts: Array[Point], sigma: Double,
              outlierProb: Double, outlierDist: Double, r: Random): Array[Point] =
    pts.map { p =>
      if (r.nextDouble() < outlierProb) {
        val a = r.nextDouble() * 2 * math.Pi
        Point(p.x + outlierDist * math.cos(a), p.y + outlierDist * math.sin(a))
      } else Point(p.x + r.nextGaussian() * sigma, p.y + r.nextGaussian() * sigma)
    }
}
