package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.TestGen

import scala.util.Random

/** Workload generation: dataset specs, query derivation and perturbation,
  * training pairs.
  */
class WorkloadsSpec extends AnyFunSuite with SparkSpec {

  test("dataLocal is deterministic and matches the Spark Dataset") {
    val spec = TestGen.tiny
    val local = Workloads.dataLocal(spec)
    val dist = Workloads.data(spark, spec).collect().sortBy(_.id)
    assert(local.length == spec.nData && dist.length == spec.nData)
    for ((a, b) <- local.zip(dist)) {
      assert(a.id == b.id)
      assert(a.xs.toSeq == b.xs.toSeq && a.ys.toSeq == b.ys.toSeq)
    }
  }

  test("queries have the configured lengths and are deterministic") {
    val spec = TestGen.tiny
    val q1 = Workloads.queries(spec)
    val q2 = Workloads.queries(spec)
    assert(q1.length == spec.nQueries)
    for ((a, b) <- q1.zip(q2)) assert(a.toSeq == b.toSeq)
    for (q <- q1) assert(q.length >= spec.qLenMin && q.length <= spec.qLenMax)
  }

  test("queries stay near the generator bounding box") {
    val spec = TestGen.tiny
    for (q <- Workloads.queries(spec); p <- q) {
      assert(p.x > -5 && p.x < spec.gen.width + 5)
      assert(p.y > -5 && p.y < spec.gen.height + 5)
    }
  }

  test("perturb preserves length and is deterministic per Random seed") {
    val pts = Workloads.dataLocal(TestGen.tiny)(1).points
    val p1 = Workloads.perturb(pts, 0.05, 0.1, 1.0, new Random(7))
    val p2 = Workloads.perturb(pts, 0.05, 0.1, 1.0, new Random(7))
    assert(p1.length == pts.length)
    assert(p1.toSeq == p2.toSeq)
  }

  test("perturb with zero noise and zero outliers is the identity") {
    val pts = Workloads.dataLocal(TestGen.tiny)(2).points
    val p = Workloads.perturb(pts, 0.0, 0.0, 1.0, new Random(1))
    for ((a, b) <- p.zip(pts)) TestGen.assertSameDist(a.distTo(b), 0.0)
  }

  test("training pairs are disjoint from evaluation data and queries") {
    val spec = TestGen.tiny
    val pairs = Workloads.trainingPairs(spec, 3)
    assert(pairs.length == 3)
    val dataSet = Workloads.dataLocal(spec).map(_.xs.toSeq).toSet
    for ((q, d) <- pairs) {
      assert(q.nonEmpty && d.nonEmpty)
      assert(!dataSet.contains(d.map(_.x).toSeq))
    }
  }

  test("the three paper workloads have increasing trajectory lengths") {
    assert(Workloads.porto.gen.lenMax < Workloads.xian.gen.lenMin ||
           Workloads.porto.gen.lenMax < Workloads.xian.gen.lenMax)
    assert(Workloads.xian.gen.lenMax < Workloads.beijing.gen.lenMin)
  }

  test("distFns covers the four Table-2 functions") {
    val names = Workloads.distFns(TestGen.tiny).map(_.name)
    assert(names == Seq("DTW", "EDR", "ERP", "FD"))
  }
}
