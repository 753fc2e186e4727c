package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baselines.ExactS
import repro.core.TestGen
import repro.pruning.Pruner

import scala.collection.immutable.ArraySeq

/** End-to-end smoke of the table harnesses on the tiny workload (the bench
  * project runs the real paper-scale workloads).
  */
class HarnessSpec extends AnyFunSuite with SparkSpec {

  private lazy val t2 = Harness.table2(spark, Seq(TestGen.tiny))
  private lazy val t3 = Harness.table3(spark, Seq(TestGen.tiny))

  test("table2 emits one row per applicable (fn, algo)") {
    // 4 fns × 6 universal algos + Spring (DTW) + GB (FD)
    assert(t2.length == 4 * 6 + 1 + 1)
    assert(t2.map(_.fn).distinct.sorted == Seq("DTW", "EDR", "ERP", "FD"))
  }

  test("table2: exact algorithms score AR=1, MR=1, RR=0") {
    for (r <- t2 if r.algo.exact) {
      assert(math.abs(r.ar - 1.0) < 1e-9, s"$r")
      assert(r.mr == 1.0, s"$r")
      assert(r.rrPct == 0.0, s"$r")
    }
  }

  test("table2: approximate algorithms never beat the optimum") {
    for (r <- t2 if !r.algo.exact) {
      assert(r.ar >= 1.0 - 1e-9, s"$r")
      assert(r.mr >= 1.0, s"$r")
      assert(r.rrPct >= 0.0, s"$r")
    }
  }

  test("table2 equals a driver-side loop over every pair, function and algorithm") {
    val spec = TestGen.tiny
    val data = Workloads.dataLocal(spec).toSeq.map(t => ArraySeq.unsafeWrapArray(t.points))
    val queries = Workloads.queries(spec).toSeq.map(ArraySeq.unsafeWrapArray(_))
    val want = for (cell <- Harness.cells(spec)) yield {
      val agg = Metrics.aggregate(for (d <- data; q <- queries)
        yield Metrics.evaluate(cell.search(q, d), ExactS.allDistances(q, d, cell.fn)))
      Harness.Table2Row(spec.name, cell.fn.name, cell.algo, agg.ar, agg.mr, agg.rrPct)
    }
    assert(t2 == want) // every double compared with ==
  }

  test("table2 formatting includes every algorithm") {
    val s = Harness.formatTable2(t2)
    for (a <- Algo.all) assert(s.contains(a.name))
  }

  test("table formatting prints fixed rows in the pinned layout") {
    assert(Harness.formatTable2(Seq(Harness.Table2Row("Xi'an", "DTW", Algo.RLSSkip, 1.23456, 12.3456, 3.5))) ==
      "Dataset   Fn      Algorithm         AR         MR       RR\n" +
      "Xi'an     DTW     RLS-Skip      1.2346      12.35    3.50%\n")
    assert(Harness.formatTable3(Seq(Harness.Table3Row("Beijing", "ERP", Algo.ExactS, 6.2849, Seq(1.0)))) ==
      "Dataset   Fn      Algorithm      Time(s)\n" +
      "Beijing   ERP     ExactS            6.28\n")
    assert(Harness.formatTable4(Seq(Harness.Table4Row(Algo.ExactS, "DTW", 1.987, Seq(250 -> 0.00123, 500 -> 0.0049)))) ==
      "Algorithm Fn    Claimed    Fitted n-exponent   times(n->s)\n" +
      "ExactS    DTW   O(mn^2)                 1.99   250->0.0012 500->0.0049\n")
  }

  test("table3 on the tiny workload: every cell completes, exact algorithms agree") {
    val rows = t3
    assert(rows.length == 4 * 6 + 1 + 1)
    assert(rows.forall(r => r.seconds > 0 && r.dists.length == TestGen.tiny.nQueries))
    for (fnName <- Seq("DTW", "EDR", "ERP", "FD")) {
      val exact = rows.filter(r => r.fn == fnName && r.algo.exact)
      assert(exact.nonEmpty)
      for (r <- exact; (d, want) <- r.dists.zip(exact.head.dists))
        assert(math.abs(d - want) < 1e-6, s"exact algorithms disagree under $fnName: $r vs ${exact.head}")
    }
  }

  // Each partition prunes against its own incumbent, and KPF at r = 0.05 is
  // heuristic, so this agreement is a property of the tiny workload (no
  // partition keeps a hit the driver's gate cut), not of every partitioning.
  test("table3 equals a driver-side Pruner.search per query, cell by cell") {
    val spec = TestGen.tiny
    val data = Workloads.dataLocal(spec).toSeq.map(t => (t.id, t.points))
    val params = Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1)
    val want = for (cell <- Harness.cells(spec)) yield
      Harness.Table3Row(spec.name, cell.fn.name, cell.algo, 0.0, Workloads.queries(spec).toSeq.map { q =>
        Pruner.search(q, data, cell.fn, params,
          (a, b) => cell.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b)))
          .fold(Double.PositiveInfinity)(_.dist)
      })
    assert(t3.map(_.copy(seconds = 0.0)) == want) // every double compared with ==
  }

  test("table4 empirical exponents: ExactS grows faster than CMA") {
    val rows = Harness.table4(sizes = Seq(200, 400, 800), m = 20, reps = 3)
    val cma    = rows.find(r => r.algo == Algo.CMA && r.fn == "DTW").get
    val exacts = rows.find(_.algo == Algo.ExactS).get
    assert(exacts.exponent > cma.exponent + 0.4,
      s"cma=${cma.exponent} exacts=${exacts.exponent}")
    assert(cma.exponent < 1.7, s"CMA should be ~linear in n, got ${cma.exponent}")
  }

  test("searcher() encodes the paper's per-function restrictions") {
    import repro.core._
    def runs(algo: Algo, fn: DistFn[Point]) = Harness.searcher(algo, fn, ???).isDefined
    val edr = Dist.edr(0.1); val erp = Dist.erp(Point(0, 0))
    assert(runs(Algo.Spring, Dist.dtw))
    for (fn <- Seq(edr, erp, Dist.fd)) assert(!runs(Algo.Spring, fn), fn.name)
    assert(runs(Algo.GB, Dist.fd))
    for (fn <- Seq(Dist.dtw, edr, erp)) assert(!runs(Algo.GB, fn), fn.name)
    assert(runs(Algo.CMA, edr))
  }
}
