package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Algo, Harness}

/** Table 4 reproduction: the complexity summary. The paper's table is a
  * static claim (CMA/Spring/GB/POS are O(mn); ExactS is O(mn²)); we validate
  * it empirically by fitting the growth exponent of per-pair wall time in
  * the data-trajectory length `n` at fixed `m`.
  */
class Table4Bench extends AnyFunSuite {

  private lazy val rows = Harness.table4(sizes = Seq(250, 500, 1000, 2000), m = 40, reps = 3)

  test("Table 4: print fitted exponents vs claimed complexities") {
    println("=== Table 4 (empirical growth exponents; claimed O(mn) => ~1, O(mn^2) => ~2) ===")
    println(Harness.formatTable4(rows))
  }

  test("Table 4 shape: O(mn) algorithms are ~linear in n") {
    for (r <- rows if r.algo.claimed == Algo.CMA.claimed)
      assert(r.exponent < 1.55, s"${r.algo}/${r.fn} should be ~linear, fitted ${r.exponent}")
  }

  test("Table 4 shape: ExactS is ~quadratic in n") {
    val es = rows.find(_.algo == Algo.ExactS).get
    assert(es.exponent > 1.6, s"ExactS should be ~quadratic, fitted ${es.exponent}")
  }

  test("Table 4 shape: ExactS grows at least ~n faster than CMA") {
    val cma = rows.find(r => r.algo == Algo.CMA && r.fn == "DTW").get
    val es  = rows.find(_.algo == Algo.ExactS).get
    assert(es.exponent - cma.exponent > 0.5,
      s"exponent gap too small: cma=${cma.exponent} exacts=${es.exponent}")
    // absolute-time sanity at ExactS's largest size, against CMA at the same n
    val (n, tEs) = es.times.last
    val tCma = cma.times.find(_._1 == n).get._2
    assert(tEs > 10 * tCma, s"at n=$n ExactS should dwarf CMA: $tEs vs $tCma")
  }

  test("Table 4 shape: every exact O(mn) competitor is within a constant of CMA") {
    val cma = rows.find(r => r.algo == Algo.CMA && r.fn == "DTW").get.times.last._2
    for (algo <- Seq(Algo.Spring, Algo.GB, Algo.POS)) {
      val t = rows.find(_.algo == algo).get.times.last._2
      assert(t < 100 * cma + 0.5, s"${algo.name} at n=2000 took $t vs CMA $cma")
    }
  }
}
