package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.TopK
import repro.eval.{Algo, Harness, Workloads}

/** Table 3 reproduction: efficiency — wall time to answer all queries over
  * the (pruned) trajectory database per dataset × distance fn × algorithm.
  *
  * Paper reference (seconds; Porto / Xi'an / Beijing, DTW column):
  *   POS 16.3/6.7/17.5   PSS 18.1/8.0/27.0   RLS 17.8/7.9/33.2
  *   RLS-Skip 16.6/5.8/13.4   CMA 18.8/5.7/10.8   ExactS 7794/1626/overtime
  *   Spring 20.0/7.4/16.5   GB (FD) 29.0/10.8/75.9
  * Shape to hold at our scale: CMA is in the same league as the O(mn)
  * approximations, ExactS is far slower (more than 3× CMA on the
  * long-trajectory Beijing workload, where the paper reports "overtime"),
  * Spring/GB are exact but no faster than CMA.
  */
class Table3Bench extends AnyFunSuite with SparkSpec {

  // Larger databases than Table 2 so search work (not per-job overhead)
  // dominates the timings; Table 2's metrics are O(mn²) per pair and use the
  // smaller N (DESIGN.md §4).
  private lazy val specs = Seq(
    Workloads.porto.copy(nData = 5000),
    Workloads.xian.copy(nData = 1000),
    Workloads.beijing)

  private lazy val rows = Harness.table3(spark, specs)

  test("Table 3: print measured vs paper") {
    println("=== Table 3 (measured) — paper values in the suite doc comment ===")
    println(Harness.formatTable3(rows))
  }

  test("Table 3 shape: every applicable cell is reported") {
    val expected = specs.flatMap(s => Harness.cells(s).map(c => (s.name, c.fn.name, c.algo)))
    assert(rows.map(r => (r.dataset, r.fn, r.algo)) == expected)
    assert(rows.forall(_.seconds > 0))
  }

  test("Table 3 shape: exact algorithms agree on every query's best distance per (dataset, fn)") {
    for ((_, cell) <- rows.groupBy(r => (r.dataset, r.fn)); exact = cell.filter(_.algo.exact);
         r <- exact; (d, want) <- r.dists.zip(exact.head.dists))
      assert(math.abs(d - want) < 1e-6, s"exact disagreement: $r vs ${exact.head}")
  }

  test("Table 3 shape: no exact answer beats the unpruned optimum; recall per cell") {
    // The paper's gate (mu 0.1, r 0.05) may cut the optimum: recall is printed, not asserted.
    for (spec <- specs; data = Workloads.dataLocal(spec).toSeq.map(t => (t.id, t.points.toIndexedSeq));
         fn <- Workloads.distFns(spec)) {
      val optimum = Workloads.queries(spec).toSeq.map(q => TopK.cma(q.toIndexedSeq, data, 1, fn).head.dist)
      for (r <- rows if r.dataset == spec.name && r.fn == fn.name) {
        assert(r.dists.length == optimum.length, s"$r")
        val recall = r.dists.zip(optimum).count { case (d, o) => math.abs(d - o) <= 1e-9 }.toDouble / optimum.length
        println(f"recall ${r.dataset}%-7s ${r.fn}%-3s ${r.algo.name}%-8s $recall%.3f")
        if (r.algo.exact)
          assert(r.dists.zip(optimum).forall { case (d, o) => d >= o - 1e-9 }, s"$r beats the optimum $optimum")
      }
    }
  }

  test("Table 3 shape: ExactS pays its O(mn^2) on the long-trajectory Beijing workload") {
    val beijingExactS = rows.filter(r => r.dataset == "Beijing" && r.algo == Algo.ExactS)
    assert(beijingExactS.nonEmpty)
    val beijingCma = rows.filter(r => r.dataset == "Beijing" && r.algo == Algo.CMA)
    for (es <- beijingExactS) {
      val cma = beijingCma.find(_.fn == es.fn).get
      // the paper reports "overtime" here; at our scale ExactS finishes,
      // much slower than CMA
      assert(es.seconds > 3 * cma.seconds, s"ExactS should be >>CMA on Beijing: $es vs $cma")
    }
  }

  test("Table 3 shape: total ExactS time dominates total CMA time") {
    val exactsTotal = rows.filter(_.algo == Algo.ExactS).map(_.seconds).sum
    val cmaTotal    = rows.filter(_.algo == Algo.CMA).map(_.seconds).sum
    println(s"total seconds: ExactS=$exactsTotal CMA=$cmaTotal")
    assert(exactsTotal > cmaTotal)
  }

  test("Table 3 shape: CMA stays in the league of the O(mn) approximations") {
    for (ds <- Seq("Porto", "Xi'an", "Beijing"); fn <- Seq("DTW", "EDR", "ERP", "FD")) {
      val cell = rows.filter(r => r.dataset == ds && r.fn == fn)
      val cma = cell.find(_.algo == Algo.CMA).get.seconds
      val approx = cell.filter(!_.algo.exact).map(_.seconds)
      // same asymptotic class, only constants differ: a factor 4 plus one cell's scale
      assert(cma <= approx.max * 4 + 0.1,
        s"$ds/$fn: CMA=$cma vs approx=${approx.sorted}")
    }
  }
}
