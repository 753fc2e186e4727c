package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baselines.ExactS

import scala.collection.immutable.ArraySeq

/** End-to-end smoke of the table harnesses on the tiny workload (the bench
  * project runs the real paper-scale workloads).
  */
class HarnessSpec extends AnyFunSuite with SparkSpec {

  private lazy val t2 = Harness.table2(spark, Seq(Workloads.tiny))

  test("table2 emits one row per applicable (fn, algo)") {
    // 4 fns × 6 universal algos + Spring (DTW) + GB (FD)
    assert(t2.length == 4 * 6 + 1 + 1)
    assert(t2.map(_.fn).distinct.sorted == Seq("DTW", "EDR", "ERP", "FD"))
  }

  test("table2: exact algorithms score AR=1, MR=1, RR=0") {
    for (r <- t2 if Seq("CMA", "ExactS", "Spring", "GB").contains(r.algo)) {
      assert(math.abs(r.ar - 1.0) < 1e-9, s"$r")
      assert(r.mr == 1.0, s"$r")
      assert(r.rrPct == 0.0, s"$r")
    }
  }

  test("table2: approximate algorithms never beat the optimum") {
    for (r <- t2 if Seq("POS", "PSS", "RLS", "RLS-Skip").contains(r.algo)) {
      assert(r.ar >= 1.0 - 1e-9, s"$r")
      assert(r.mr >= 1.0, s"$r")
      assert(r.rrPct >= 0.0, s"$r")
    }
  }

  test("table2 equals a driver-side loop over every pair, function and algorithm") {
    val spec = Workloads.tiny
    val fns = Workloads.distFns(spec)
    val policies = Harness.trainPolicies(spec, fns)
    val data = Workloads.dataLocal(spec).toSeq.map(t => ArraySeq.unsafeWrapArray(t.points))
    val queries = Workloads.queries(spec).toSeq.map(ArraySeq.unsafeWrapArray(_))
    val want = for (fn <- fns; algo <- Algo.all; search <- Harness.searcher(algo, fn, policies)) yield {
      val agg = Metrics.aggregate(for (d <- data; q <- queries)
        yield Metrics.evaluate(search(q, d), ExactS.allDistances(q, d, fn)))
      Harness.Table2Row(spec.name, fn.name, algo.name, agg.ar, agg.mr, agg.rrPct)
    }
    assert(t2.length == want.length)
    for ((g, w) <- t2.zip(want)) assert(g == w) // every double compared with ==
  }

  test("table2 formatting includes every algorithm") {
    val s = Harness.formatTable2(t2)
    for (a <- Algo.all) assert(s.contains(a.name))
  }

  test("table3 on the tiny workload: every cell completes, exact algorithms agree") {
    val rows = Harness.table3(spark, Seq(Workloads.tiny))
    assert(rows.length == 4 * 6 + 1 + 1)
    assert(rows.forall(_.seconds > 0))
    for (fnName <- Seq("DTW", "EDR", "ERP", "FD")) {
      val exact = rows.filter(r => r.fn == fnName &&
        Seq("CMA", "ExactS", "Spring", "GB").contains(r.algo)).map(_.bestDist)
      assert(exact.nonEmpty)
      for (d <- exact) assert(math.abs(d - exact.head) < 1e-6,
        s"exact algorithms disagree under $fnName: $exact")
    }
  }

  test("table4 empirical exponents: ExactS grows faster than CMA") {
    val rows = Harness.table4(sizes = Seq(200, 400, 800), m = 20, reps = 3)
    val cma    = rows.find(r => r.algo == "CMA" && r.fn == "DTW").get
    val exacts = rows.find(r => r.algo == "ExactS").get
    assert(exacts.exponent > cma.exponent + 0.4,
      s"cma=${cma.exponent} exacts=${exacts.exponent}")
    assert(cma.exponent < 1.7, s"CMA should be ~linear in n, got ${cma.exponent}")
  }

  test("searcher() encodes the paper's per-function restrictions") {
    import repro.core._
    def runs(algo: Algo, fn: DistFn[Point]) = Harness.searcher(algo, fn, Map.empty).isDefined
    val edr = Dist.edr(0.1); val erp = Dist.erp(Point(0, 0))
    assert(runs(Algo.Spring, Dist.dtw))
    for (fn <- Seq(edr, erp, Dist.fd)) assert(!runs(Algo.Spring, fn), fn.name)
    assert(runs(Algo.GB, Dist.fd))
    for (fn <- Seq(Dist.dtw, edr, erp)) assert(!runs(Algo.GB, fn), fn.name)
    assert(runs(Algo.CMA, edr))
  }
}
