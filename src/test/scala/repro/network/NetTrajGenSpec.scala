package repro.network

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TrajGenSpec

/** Road-constrained trajectory generator (the taxi-data stand-in). */
class NetTrajGenSpec extends AnyFunSuite {

  private val spec = TrajGenSpec(lenMin = 30, lenMax = 60, width = 12, height = 10, stepKm = 0.15)

  test("generation is deterministic in (id, spec, seed)") {
    val a = NetTrajGen.gen(3L, spec, 5)
    val b = NetTrajGen.gen(3L, spec, 5)
    assert(a.xs.toSeq == b.xs.toSeq && a.ys.toSeq == b.ys.toSeq)
  }

  test("different ids differ") {
    assert(NetTrajGen.gen(1L, spec, 5).xs.toSeq != NetTrajGen.gen(2L, spec, 5).xs.toSeq)
  }

  test("different seeds differ") {
    assert(NetTrajGen.gen(1L, spec, 5).xs.toSeq != NetTrajGen.gen(1L, spec, 6).xs.toSeq)
  }

  for (id <- 0 until 8)
    test(s"length within spec and points near the network extent [id=$id]") {
      val t = NetTrajGen.gen(id.toLong, spec, 9)
      assert(t.length >= spec.lenMin && t.length <= spec.lenMax)
      // grid nodes are jittered within the box; GPS jitter adds a bit more
      val m = spec.stepKm * 8
      assert(t.xs.forall(x => x > -m && x < spec.width + m))
      assert(t.ys.forall(y => y > -m && y < spec.height + m))
    }

  test("consecutive spacing is close to stepKm on average") {
    val pts = NetTrajGen.gen(7L, spec, 9).points
    val steps = pts.sliding(2).map(w => w(0).distTo(w(1))).toSeq
    val mean = steps.sum / steps.size
    assert(mean > spec.stepKm * 0.3 && mean < spec.stepKm * 3.0, s"mean spacing $mean")
  }

  test("trajectories share road corridors (some points of different walks are close)") {
    val a = NetTrajGen.gen(11L, spec, 9).points
    val b = NetTrajGen.gen(12L, spec, 9).points
    val minDist = a.map(p => b.map(p.distTo).min).min
    // On a shared grid two walks pass near some common node far more often
    // than two free random walks would; just require plausibility here.
    assert(minDist < spec.stepKm * 40, s"walks implausibly far apart: $minDist")
  }

  test("networkFor caches and is shaped by the bounding box") {
    val n1 = NetTrajGen.networkFor(spec, 9)
    val n2 = NetTrajGen.networkFor(spec, 9)
    assert(n1 eq n2)
    assert(n1.nNodes >= 4)
  }
}
