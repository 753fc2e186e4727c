package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** The synthetic-trajectory substrate standing in for the paper's taxi data. */
class TrajGenSuite extends AnyFunSuite {

  private val spec = TrajGenSpec(lenMin = 20, lenMax = 40, width = 10, height = 8, stepKm = 0.2)

  test("generation is deterministic in (id, spec, seed)") {
    val a = TrajGen.gen(5L, spec, seed = 3)
    val b = TrajGen.gen(5L, spec, seed = 3)
    assert(a.xs.toSeq == b.xs.toSeq && a.ys.toSeq == b.ys.toSeq)
  }

  test("different ids give different trajectories") {
    val a = TrajGen.gen(1L, spec, seed = 3)
    val b = TrajGen.gen(2L, spec, seed = 3)
    assert(a.xs.toSeq != b.xs.toSeq)
  }

  test("different seeds give different trajectories") {
    val a = TrajGen.gen(1L, spec, seed = 3)
    val b = TrajGen.gen(1L, spec, seed = 4)
    assert(a.xs.toSeq != b.xs.toSeq)
  }

  for (id <- 0 until 10)
    test(s"length and bounding box respected [id=$id]") {
      val t = TrajGen.gen(id.toLong, spec, seed = 8)
      assert(t.length >= spec.lenMin && t.length <= spec.lenMax)
      assert(t.xs.forall(x => x >= 0 && x <= spec.width))
      assert(t.ys.forall(y => y >= 0 && y <= spec.height))
    }

  test("consecutive displacement is bounded by the step distribution") {
    val t = TrajGen.gen(3L, spec, seed = 5).points
    val steps = t.sliding(2).map { case Array(a, b) => a.distTo(b) }.toSeq
    // stepKm * (0.6..1.4); reflections can only shorten the displacement
    assert(steps.forall(_ <= spec.stepKm * 1.4 + 1e-9))
    assert(steps.exists(_ > 0))
  }

  test("perturb preserves length and is deterministic per Random seed") {
    val pts = TrajGen.gen(1L, spec, 1).points
    val p1 = TrajGen.perturb(pts, 0.05, 0.1, 1.0, new Random(7))
    val p2 = TrajGen.perturb(pts, 0.05, 0.1, 1.0, new Random(7))
    assert(p1.length == pts.length)
    assert(p1.toSeq == p2.toSeq)
  }

  test("perturb with zero noise and zero outliers is the identity") {
    val pts = TrajGen.gen(2L, spec, 1).points
    val p = TrajGen.perturb(pts, 0.0, 0.0, 1.0, new Random(1))
    for ((a, b) <- p.zip(pts)) TestGen.assertSameDist(a.distTo(b), 0.0)
  }
}
