package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.network.NetTrajGen

/** The synthetic-trajectory substrate standing in for the paper's taxi data:
  * what a [[TrajGenSpec]] promises of the generator, `NetTrajGen`.
  */
class TrajGenSuite extends AnyFunSuite {

  private val spec = TrajGenSpec(lenMin = 20, lenMax = 40, width = 10, height = 8, stepKm = 0.2)

  // The box holds up to the generator's jitter: road nodes lie within 0.15
  // of a grid cell (8 steps) of a lattice inside the box, and each point
  // adds Gaussian GPS noise of sd 0.2 steps (six sd allowed here).
  private val margin = 0.15 * spec.stepKm * 8 + 6 * 0.2 * spec.stepKm

  test("generation is deterministic in (id, spec, seed)") {
    val a = NetTrajGen.gen(5L, spec, seed = 3)
    val b = NetTrajGen.gen(5L, spec, seed = 3)
    assert(a.xs.toSeq == b.xs.toSeq && a.ys.toSeq == b.ys.toSeq)
  }

  test("different ids give different trajectories") {
    val a = NetTrajGen.gen(1L, spec, seed = 3)
    val b = NetTrajGen.gen(2L, spec, seed = 3)
    assert(a.xs.toSeq != b.xs.toSeq)
  }

  for (id <- 0 until 10)
    test(s"length and bounding box respected [id=$id]") {
      val t = NetTrajGen.gen(id.toLong, spec, seed = 8)
      assert(t.length >= spec.lenMin && t.length <= spec.lenMax)
      assert(t.xs.forall(x => x >= -margin && x <= spec.width + margin))
      assert(t.ys.forall(y => y >= -margin && y <= spec.height + margin))
    }
}
