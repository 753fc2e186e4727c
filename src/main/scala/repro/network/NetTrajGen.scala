package repro.network

import repro.core.{Traj, TrajGenSpec}

import scala.util.Random

/** The trajectory generator of every workload and of Table 4: a walk on
  * the (deterministic) city-sized grid network, resampled to per-point
  * spacing `stepKm` with small GPS jitter. `gen(id, spec, seed)` is a pure
  * function of its arguments, so driver-side and executor-side generation
  * agree exactly. Trajectories share corridors — the multi-modal "several
  * similar windows in different trajectories" structure of real taxi data
  * that the paper's approximate baselines struggle with (Table 2).
  */
object NetTrajGen {

  private val cache = new java.util.concurrent.ConcurrentHashMap[(Int, Int, Double, Long), RoadNetwork]()

  /** The shared road network of a workload: grid cell ≈ 8 sampling steps. */
  def networkFor(spec: TrajGenSpec, seed: Long): RoadNetwork = {
    val cell = spec.stepKm * 8
    val w = math.max(2, math.round(spec.width / cell).toInt)
    val h = math.max(2, math.round(spec.height / cell).toInt)
    cache.computeIfAbsent((w, h, cell, seed),
      _ => RoadNetwork.grid(w, h, cell, seed ^ 0x5DEECE66DL))
  }

  private def rng(seed: Long, id: Long): Random =
    new Random(seed * 0x9E3779B97F4A7C15L + id * 0xD1B54A32D192ED03L + 29L)

  /** Deterministic road-following trajectory `id` under `spec`. */
  def gen(id: Long, spec: TrajGenSpec, seed: Long): Traj = {
    val net = networkFor(spec, seed)
    val r   = rng(seed, id)
    val len = spec.lenMin + r.nextInt(spec.lenMax - spec.lenMin + 1)
    val cell = spec.stepKm * 8
    // Enough walk nodes that the polyline is longer than len * stepKm.
    val nNodes = math.max(2, math.ceil(len * spec.stepKm / cell).toInt + 3)
    val nodes = net.walk(r.nextInt(net.nNodes), nNodes, r.nextLong())
    // Cumulative polyline arc lengths.
    val px = nodes.map(net.xs(_)); val py = nodes.map(net.ys(_))
    val cum = new Array[Double](nodes.length)
    var k = 1
    while (k < nodes.length) {
      val dx = px(k) - px(k - 1); val dy = py(k) - py(k - 1)
      cum(k) = cum(k - 1) + math.sqrt(dx * dx + dy * dy)
      k += 1
    }
    val total = math.max(cum.last, 1e-9)
    val spacing = total / len
    val xs = new Array[Double](len); val ys = new Array[Double](len)
    var seg = 1
    var i = 0
    while (i < len) {
      val target = math.min(i * spacing, total)
      while (seg < nodes.length - 1 && cum(seg) < target) seg += 1
      val t0 = cum(seg - 1); val t1 = cum(seg)
      val f = if (t1 > t0) (target - t0) / (t1 - t0) else 0.0
      val jx = r.nextGaussian() * spec.stepKm * 0.2
      val jy = r.nextGaussian() * spec.stepKm * 0.2
      xs(i) = px(seg - 1) + f * (px(seg) - px(seg - 1)) + jx
      ys(i) = py(seg - 1) + f * (py(seg) - py(seg - 1)) + jy
      i += 1
    }
    Traj(id, xs, ys)
  }
}
