package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.{Harness, Workloads}

/** Table 2 reproduction: effectiveness (AR / MR / RR) of every algorithm
  * under DTW / EDR / ERP / FD on the Porto-like and Xi'an-like workloads.
  *
  * Paper reference (Porto | Xi'an, AR values):
  *   POS      DTW 3.03|35.56  EDR 1.43|1.52  ERP 1.50|1.45  FD 2.94|20.50
  *   PSS      DTW 1.98| 4.37  EDR 1.35|1.46  ERP 2.53|1.70  FD 1.38| 1.38
  *   RLS      DTW 1.74| 3.61  EDR 1.34|1.43  ERP 2.23|1.56  FD 1.38| 1.39
  *   RLS-Skip DTW 2.03| 7.32  EDR 1.35|1.46  ERP 2.45|1.69  FD 1.64| 3.53
  *   CMA / ExactS / Spring / GB: AR = 1, MR = 1, RR = 0% everywhere.
  * The shape to hold: exact algorithms are exactly optimal; approximate
  * algorithms are not (AR > 1), and are at their worst under DTW.
  */
class Table2Bench extends AnyFunSuite with SparkSpec {

  private val specs = Seq(Workloads.porto, Workloads.xian)
  private lazy val rows = Harness.table2(spark, specs)

  test("Table 2: print measured vs paper") {
    println("=== Table 2 (measured) — paper values in the suite doc comment ===")
    println(Harness.formatTable2(rows))
  }

  test("Table 2 shape: exact algorithms are exactly optimal (AR=MR=1, RR=0)") {
    val exact = rows.filter(_.algo.exact)
    assert(exact.nonEmpty)
    for (r <- exact) {
      assert(math.abs(r.ar - 1.0) < 1e-6, s"$r")
      assert(r.mr == 1.0, s"$r")
      assert(r.rrPct == 0.0, s"$r")
    }
  }

  test("Table 2 shape: approximate algorithms never beat the optimum and miss it somewhere") {
    val approx = rows.filter(!_.algo.exact)
    for (r <- approx) {
      assert(r.ar >= 1.0 - 1e-9, s"$r")
      assert(r.mr >= 1.0, s"$r")
    }
    assert(approx.exists(_.ar > 1.01),
      "at least one approximate cell should be visibly sub-optimal, as in the paper")
    assert(approx.exists(_.mr > 1.0),
      "approximate algorithms should not always find rank-1 results")
  }

  test("Table 2 shape: every (dataset, fn) is covered by all applicable algorithms") {
    val expected = specs.flatMap(s => Harness.cells(s).map(c => (s.name, c.fn.name, c.algo)))
    assert(rows.map(r => (r.dataset, r.fn, r.algo)) == expected)
  }

  test("Table 2 shape: DTW is the hardest function for the approximations") {
    // Paper §6.2: "All algorithms except CMA have poor performance when DTW
    // is used." Compare mean approximate AR under DTW vs the easiest fn.
    val byFn = rows.filter(!_.algo.exact).groupBy(_.fn)
      .view.mapValues(rs => rs.map(_.ar).sum / rs.size).toMap
    println(s"mean approximate AR by fn: $byFn")
    assert(byFn("DTW") >= byFn.values.min,
      s"DTW should not be the easiest function for approximations: $byFn")
  }
}
