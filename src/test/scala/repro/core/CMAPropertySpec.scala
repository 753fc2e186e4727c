package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck property suite for CMA: generator-driven (with shrinking)
  * rather than fixed seeds, complementing the seeded loops in CMASpec.
  * Uses the raw ScalaCheck runner (the scalatest bridge artifact is not in
  * the offline dependency set).
  */
class CMAPropertySpec extends AnyFunSuite {

  private val genPoint: Gen[Point] =
    for (x <- Gen.chooseNum(0.0, 1.0); y <- Gen.chooseNum(0.0, 1.0)) yield Point(x, y)

  private val genTraj: Gen[IndexedSeq[Point]] =
    Gen.chooseNum(1, 14).flatMap(n => Gen.listOfN(n, genPoint).map(_.toIndexedSeq))

  private val genQuery: Gen[IndexedSeq[Point]] =
    Gen.chooseNum(1, 6).flatMap(n => Gen.listOfN(n, genPoint).map(_.toIndexedSeq))

  private def check(prop: Prop, n: Int = 40): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), prop)
    assert(res.passed, res.status.toString)
  }

  // WED3 and WEDF break `del(x) + ins(y) >= sub(x, y)`: dear substitutions,
  // and (WEDF) free insertions, under which matching no point wins.
  private val violating: Seq[DistFn[Point]] = Seq(
    TestGen.wedCustom[Point]("WED3", (a, b) => 3 * a.distTo(b), _ => 0.1, _ => 0.1),
    TestGen.wedCustom[Point]("WEDF", (a, b) => 1.0 + a.distTo(b), _ => 0.2, _ => 0.0),
  )

  for (fn <- TestGen.pointFns ++ violating)
    test(s"property: CMA == brute force and interval is achievable [${fn.name}]") {
      check(Prop.forAll(genQuery, genTraj) { (q, d) =>
        val cma = CMA.search(q, d, fn)
        val bf  = BruteForce.search(q, d, fn)
        val achieved = FullDist.dist(q, d.slice(cma.start - 1, cma.end), fn)
        math.abs(cma.dist - bf.dist) <= 1e-9 && math.abs(achieved - cma.dist) <= 1e-9
      })
    }

  test("property: adding data points never increases the optimal distance") {
    // Any subtrajectory of d is a subtrajectory of d ++ extra.
    check(Prop.forAll(genQuery, genTraj, genTraj) { (q, d, extra) =>
      TestGen.pointFns.forall { fn =>
        CMA.search(q, d ++ extra, fn).dist <= CMA.search(q, d, fn).dist + 1e-9
      }
    })
  }

  test("property: optimal distance is invariant under reversing both trajectories") {
    check(Prop.forAll(genQuery, genTraj) { (q, d) =>
      TestGen.pointFns.forall { fn =>
        math.abs(CMA.search(q, d, fn).dist - CMA.search(q.reverse, d.reverse, fn).dist) <= 1e-9
      }
    })
  }

  test("property: a zero-noise embedded query yields distance 0") {
    val gen = for {
      d  <- genTraj.suchThat(_.length >= 3)
      i  <- Gen.chooseNum(0, d.length - 1)
      j  <- Gen.chooseNum(i, d.length - 1)
    } yield (d, i, j)
    check(Prop.forAll(gen) { case (d, i, j) =>
      val q = d.slice(i, j + 1)
      Seq[DistFn[Point]](Dist.dtw, Dist.fd, Dist.edr(0.1))
        .forall(fn => CMA.search(q, d, fn).dist == 0.0)
    })
  }

  test("property: CMA distance lower-bounds every window's full distance") {
    check(Prop.forAll(genQuery, genTraj, Gen.chooseNum(0.0, 1.0), Gen.chooseNum(0.0, 1.0)) {
      (q, d, fa, fb) =>
        val i = math.min((fa * d.length).toInt, d.length - 1)
        val j = math.max(i, math.min((fb * d.length).toInt, d.length - 1))
        TestGen.pointFns.forall { fn =>
          CMA.search(q, d, fn).dist <= FullDist.dist(q, d.slice(i, j + 1), fn) + 1e-9
        }
    })
  }
}
