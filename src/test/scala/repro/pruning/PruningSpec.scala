package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.eval.Workloads

import scala.collection.immutable.ArraySeq
import scala.util.Random

/** GBP / KPF: soundness of the lower bounds (Theorem B.1), grid semantics,
  * the best-first order of the Algorithm-3 pipeline against the scan
  * oracles, and its exactness under safe parameters.
  */
class PruningSpec extends AnyFunSuite {

  /** CMA under `fn` on arrays, as `Pruner.search` hands them over. */
  private def searchArrays(fn: DistFn[Point]): (Array[Point], Array[Point]) => SubtrajResult =
    (a, b) => CMA.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b), fn)

  /** A search that fails the test: `Pruner.search` must reject first. */
  private val noSearch: (Array[Point], Array[Point]) => SubtrajResult =
    (_, _) => fail("searched before the input was rejected")

  private def wrapped(db: collection.Seq[(Long, Array[Point])]): Seq[(Long, IndexedSeq[Point])] =
    db.map { case (id, d) => (id, ArraySeq.unsafeWrapArray(d): IndexedSeq[Point]) }.toSeq

  /** `Pruner.search` (k = 1), over `db` and over `db` shuffled, equals the
    * best-first oracle keyed by the scanned estimate, hit and `Stats`; at
    * k = 3, the oracle's loop over `Pruner.gate`'s keys equals it over the
    * scanned keys. The bounds are bit-identical, so the order is too. Every
    * trajectory is cut by GBP or KPF or searched. Returns the KPF cuts.
    */
  private def matchesOracle(q: Array[Point], db: Array[(Long, Array[Point])], fn: DistFn[Point],
                            params: Pruner.Params, r: Random): Int =
    Seq(1, 3).map { k =>
      val (gotStats, wantStats) = (Pruner.Stats(), Pruner.Stats())
      val want = ScanOracles.bestFirst(q, wrapped(db), k, ScanOracles.key(q, fn, params, wantStats), fn, wantStats)
      val got =
        if (k == 1) Pruner.search(q, db, fn, params, searchArrays(fn), gotStats).toArray
        else ScanOracles.bestFirst(q, wrapped(db), k, Pruner.gate(q, fn, params, gotStats), fn, gotStats)
      assert(got.toSeq == want.toSeq, s"k=$k params=$params")
      assert(gotStats == wantStats, s"k=$k params=$params")
      if (k == 1) assert(Pruner.search(q, r.shuffle(db.toSeq), fn, params, searchArrays(fn)).toSeq == want.toSeq)
      assert(wantStats.gbpPruned + wantStats.kpfPruned + wantStats.searched == wantStats.examined, s"$wantStats")
      wantStats.kpfPruned
    }.sum

  private def smallDb(seed: Int, n: Int = 10): Array[(Long, Array[Point])] = {
    val r = new Random(seed)
    Array.tabulate(n)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(15)).toArray))
  }

  // --- Theorem B.1: the unsampled KPF bound never exceeds the optimum ---
  for (fn <- TestGen.pointFns; seed <- 0 until 10)
    test(s"KPF lower bound <= exact optimum [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 61 + 17)
      val lb = ScanOracles.lowerBound(q, d, fn)
      val opt = CMA.search(q, d, fn).dist
      assert(lb <= opt + 1e-9, s"lb=$lb opt=$opt")
    }

  test("ScanOracles.pointMinCost is min over sub/del") {
    val d = IndexedSeq(Point(0, 0), Point(1, 0), Point(2, 0))
    val erp = Dist.erp(Point(0, 0))
    // query point near (1,0): sub min = 0.1, del = dist to gap (0,0) = 1.1
    TestGen.assertSameDist(ScanOracles.pointMinCost(Point(1.1, 0), d, erp), 0.1, 1e-9)
    // query point far away: deletion (to gap) may win
    val far = Point(0.2, 0)
    TestGen.assertSameDist(ScanOracles.pointMinCost(far, d, erp), 0.2, 1e-9)
  }

  // Theorem B.1's term is written once, for DTW, FD, ERP and EDR; both the
  // estimate (by scan at r = 0.05, by grid at r = 1) and the box bound give
  // every other function 0.
  test("KPF estimate and box bound answer 0 for the same point functions: the custom WED") {
    val r = new Random(10)
    val d = TestGen.randPoints(r, 30)
    val q = TestGen.randPoints(r, 12).map(p => Point(p.x + 3, p.y)) // far from d
    val box = KPF.Box(d.map(_.x).min, d.map(_.x).max, d.map(_.y).min, d.map(_.y).max)
    val zeroBox = TestGen.pointFns.filter(fn => KPF.boxBound(q, fn, box) == 0.0)
    assert(zeroBox.map(_.name) == Seq("WEDC"))
    for (rate <- Seq(0.05, 1.0))
      assert(TestGen.pointFns.filter(fn => KPF.estimate(q, d, fn, rate) == 0.0) == zeroBox, s"r=$rate")
  }

  test("KPF key point sampling covers the query uniformly") {
    val idx = KPF.keyPointIdx(100, 0.05)
    assert(idx.length == 5)
    assert(idx.forall(i => i >= 0 && i < 100))
    assert(idx.distinct.length == idx.length)
    assert(KPF.keyPointIdx(3, 0.05).length == 1) // at least one
  }

  test("KPF estimate with r=1 equals the exact bound (sum-type)") {
    val (q, d) = TestGen.randPair(77)
    val fn = Dist.erp(Point(0.5, 0.5))
    TestGen.assertSameDist(KPF.estimate(q, d, fn, 1.0), ScanOracles.lowerBound(q, d, fn))
  }

  test("KPF estimate rejects an empty query") {
    val d = TestGen.randPoints(new Random(3), 8)
    for (fn <- TestGen.pointFns; rate <- Seq(0.05, 1.0))
      intercept[IllegalArgumentException](KPF.estimate(IndexedSeq.empty, d, fn, rate))
  }

  // --- Params: the ranges the bounds rely on (above r = 1 key points
  // repeat: `keyPointIdx(3, 1.5)` is [0, 0, 1, 2, 2]) ---
  test("Params rejects a key-point rate r outside (0, 1]") {
    for (r <- Seq(0.0, -0.05, Math.nextUp(1.0), 1.5, Double.NaN, Double.PositiveInfinity))
      assertThrows[IllegalArgumentException](Pruner.Params(eps = 1.0, r = r))
    for (r <- Seq(Double.MinPositiveValue, 0.05, 1.0)) assert(Pruner.Params(eps = 1.0, r = r).r == r)
  }

  test("Params rejects a GBP ratio mu outside [0, 1]") {
    for (mu <- Seq(-0.1, Math.nextUp(1.0), 2.0, Double.NaN))
      assertThrows[IllegalArgumentException](Pruner.Params(eps = 1.0, mu = mu))
    for (mu <- Seq(0.0, 0.4, 1.0)) assert(Pruner.Params(eps = 1.0, mu = mu).mu == mu)
  }

  test("Params rejects a grid cell size eps that is not finite and positive") {
    for (eps <- Seq(0.0, -1.0, Double.PositiveInfinity, Double.NaN))
      assertThrows[IllegalArgumentException](Pruner.Params(eps = eps, useGBP = false))
    for (eps <- Seq(Double.MinPositiveValue, 0.9, Double.MaxValue)) assert(Pruner.Params(eps = eps).eps == eps)
  }

  // --- Best-first order: each Pruner.search against the scan oracles ---
  // The KPF cut is the early stop: a trajectory whose full estimate reaches
  // its threshold is never searched.
  for (fn <- TestGen.pointFns.take(4); rate <- Seq(0.05, 1.0))
    test(s"gate with early-stopped KPF keeps hits and stats [${fn.name} r=$rate]") {
      var kpfPruned = 0
      for (seed <- 0 until 6) {
        val r = new Random(seed + 300)
        val db = Array.tabulate(30)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(30)).toArray))
        val q = TestGen.randPoints(r, 20 + r.nextInt(40)).toArray
        val params = Pruner.Params(eps = 0.2, mu = 0.1, r = rate, useGBP = seed % 2 == 0)
        kpfPruned += matchesOracle(q, db, fn, params, r)
      }
      assert(kpfPruned > 0, "KPF never pruned")
    }

  // Copies of four trajectories under new ids tie with them exactly, and
  // half the queries are pieces of a copied trajectory, so the best hit ties.
  for (fn <- TestGen.pointFns)
    test(s"r = 1 without GBP: Pruner.search == TopK.cma hit for hit, in any data order [${fn.name}]") {
      val params = Pruner.Params(eps = 1.0, r = 1.0, useGBP = false)
      for (seed <- 0 until 20) {
        val r = new Random(seed + 500)
        val base = smallDb(seed + 500, 12)
        val db = base.toSeq ++ base.take(4).map { case (id, d) => (id + 100, d) }
        val q = if (seed % 2 == 0) base(r.nextInt(4))._2.take(5) else TestGen.randPoints(r, 6).toArray
        val want = TopK.cma(ArraySeq.unsafeWrapArray(q), wrapped(db), 1, fn).headOption
        for (_ <- 0 until 3)
          assert(Pruner.search(q, r.shuffle(db), fn, params, searchArrays(fn)) == want, s"seed=$seed")
      }
    }

  // Best-first at k = 1 searches only trajectories whose bound is at most
  // the optimum; id order searches every one whose bound is below it
  // (DESIGN.md §3). EDR's integer bounds tie, so it is left out.
  for (fn <- TestGen.pointFns.filter(f => Set("DTW", "ERP", "FD")(f.name)))
    test(s"best-first searches no more trajectories than id order at k = 1 [${fn.name}]") {
      val params = Pruner.Params(eps = 1.0, r = 1.0, useGBP = false)
      var (best, byId) = (0, 0)
      for (seed <- 0 until 30) {
        val db = smallDb(seed + 700, 25)
        val q = TestGen.randPoints(new Random(seed + 800), 3 + seed % 8).toArray
        val (got, want) = (Pruner.Stats(), Pruner.Stats())
        val hit = Pruner.search(q, db, fn, params, searchArrays(fn), got)
        val idHits = ScanOracles.idOrder(q, wrapped(db), 1, ScanOracles.key(q, fn, params, want), fn, want)
        assert(hit.toSeq == idHits.toSeq, s"seed=$seed")
        assert(got.searched <= want.searched, s"seed=$seed best-first $got id order $want")
        best += got.searched; byId += want.searched
      }
      assert(best < byId, s"best-first searched $best, id order $byId")
    }

  // perfbench's traced run hands one Stats to many searches; every count
  // adds up, and the KPF cuts, derived from the others, do too.
  test("one Stats shared across Pruner.search calls is the sum of each call's Stats") {
    val (shared, sum) = (Pruner.Stats(), Pruner.Stats())
    var (kpfPruned, calls) = (0, 0)
    for (fn <- TestGen.pointFns.take(4); seed <- 0 until 3; rate <- Seq(0.05, 1.0); useGBP <- Seq(true, false)) {
      val r = new Random(seed + 900)
      val db = Array.tabulate(20)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(20)).toArray))
      val q = TestGen.randPoints(r, 10 + r.nextInt(20)).toArray
      val params = Pruner.Params(eps = 0.05, mu = 0.4, r = rate, useGBP = useGBP)
      val counted: (Array[Point], Array[Point]) => SubtrajResult = (a, b) => { calls += 1; searchArrays(fn)(a, b) }
      val own = Pruner.Stats()
      val hit = Pruner.search(q, db, fn, params, counted, shared)
      assert(Pruner.search(q, db, fn, params, searchArrays(fn), own) == hit)
      sum.examined += own.examined; sum.gbpPruned += own.gbpPruned; sum.searched += own.searched
      kpfPruned += own.kpfPruned
    }
    assert(shared == sum && shared.kpfPruned == kpfPruned, s"shared $shared, summed $sum")
    assert(shared.searched == calls, s"$shared after $calls searches")
    assert(shared.gbpPruned > 0 && kpfPruned > 0, s"$shared")
  }

  // --- GBP grid semantics ---
  test("GBP cell packing is injective on distinct cells") {
    val eps = 0.25
    val cells = for (x <- -5 to 5; y <- -5 to 5)
      yield GBP.cell(Point(x * eps + eps / 2, y * eps + eps / 2), eps)
    assert(cells.distinct.length == cells.length)
  }

  test("GBP dilate returns the 3x3 block") {
    val c = GBP.cell(Point(1.0, 1.0), 0.5)
    val b = GBP.dilate(c)
    assert(b.length == 9 && b.distinct.length == 9 && b.contains(c))
  }

  test("GBP close-count of a trajectory with itself is m") {
    val t = TestGen.randPoints(new Random(4), 12).toArray
    val qc = GBP.queryCells(t, 0.3)
    assert(GBP.closeCount(qc, t, 0.3) == t.length)
    assert(GBP.passes(qc, t, 0.3, 1.0))
  }

  test("GBP rejects a far-away trajectory") {
    val t = TestGen.randPoints(new Random(5), 10).toArray
    val far = t.map(p => Point(p.x + 100, p.y + 100))
    assert(GBP.closeCount(GBP.queryCells(t, 0.3), far, 0.3) == 0)
  }

  test("GBP close is monotone in eps (coarser grid keeps at least as many)") {
    val r = new Random(6)
    val q = TestGen.randPoints(r, 10).toArray
    val d = TestGen.randPoints(r, 15).toArray
    val small = GBP.closeCount(GBP.queryCells(q, 0.1), d, 0.1)
    val large = GBP.closeCount(GBP.queryCells(q, 0.8), d, 0.8)
    assert(large >= small)
  }

  test("GBP close count equals the HashSet-of-dilated-cells count") {
    val r = new Random(12)
    for (_ <- 0 until 400) {
      val eps = Seq(0.05, 0.3, 2.0)(r.nextInt(3))
      val scale = Seq(0.5, 5.0, 1e10)(r.nextInt(3)) // 1e10 / 0.05 overflows the 32-bit cell halves
      val shift = if (r.nextBoolean()) 0.0 else -scale / 2
      def pts(n: Int) = TestGen.randPoints(r, n, scale).map(p => Point(p.x + shift, p.y + shift)).toArray
      val d = pts(1 + r.nextInt(120))
      // Half the time the query is a perturbed part of d, so counts are neither 0 nor m.
      val q = if (r.nextBoolean()) pts(1 + r.nextInt(30))
              else d.take(1 + r.nextInt(d.length)).map(p => Point(p.x + r.nextGaussian() * eps, p.y + r.nextGaussian() * eps))
      val qc = GBP.queryCells(q, eps)
      assert(GBP.closeCount(qc, d, eps) == ScanOracles.closeCount(qc, d, eps), s"eps=$eps scale=$scale")
    }
  }

  // --- Grid-indexed KPF decides as the scan on Beijing-sized inputs ---
  for (fn <- Workloads.distFns(Workloads.beijing))
    test(s"grid KPF keeps the scan gate's hits and stats on Beijing trajectories [${fn.name}]") {
      val spec = Workloads.beijing
      val db = Workloads.dataLocal(spec).take(10).map(t => (t.id, t.points))
      val r = new Random(fn.name.hashCode)
      var kpfPruned = 0
      for (q <- Workloads.queries(spec);
           params <- Seq(Pruner.Params(eps = spec.gen.stepKm * 8, r = 1.0, useGBP = false),
                         Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1, r = 0.05))) {
        assert(q.length <= 200 && db.forall(_._2.length <= 3000))
        kpfPruned += matchesOracle(q, db, fn, params, r)
      }
      assert(kpfPruned > 0, "KPF never pruned")
    }

  // --- Algorithm 3 pipeline exactness under safe parameters ---
  for (fn <- TestGen.pointFns; seed <- 0 until 6)
    test(s"pipeline with KPF-only (safe r=1) is exact [${fn.name} seed=$seed]") {
      val db = smallDb(seed + 40)
      val q = TestGen.randPoints(new Random(seed + 99), 6).toArray
      val params = Pruner.Params(eps = 1.0, mu = 0.4, r = 1.0, useGBP = false)
      val got = Pruner.search(q, db, fn, params, searchArrays(fn)).get
      val want = db.map { case (_, d) => searchArrays(fn)(q, d).dist }.sorted
      TestGen.assertSameDist(got.dist, want.head)
      // k = 3: KPF prunes against the third-best distance.
      val top3 = ScanOracles.bestFirst(q, wrapped(db), 3, Pruner.gate(q, fn, params), fn, Pruner.Stats())
      assert(top3.length == 3)
      for ((h, w) <- top3.zip(want)) TestGen.assertSameDist(h.dist, w)
    }

  // GBP would cut an empty trajectory (no close points), and KPF would
  // sort it last (its bound over no points is +inf). Every trajectory is
  // keyed before any is searched, so the rejection comes before a search.
  test("gate rejects an empty data trajectory before GBP or KPF, first or second") {
    val d = TestGen.randPoints(new Random(8), 12).toArray
    val q = d.take(5)
    for (useGBP <- Seq(true, false); emptyFirst <- Seq(true, false)) {
      val data =
        if (emptyFirst) Seq((0L, Array.empty[Point]), (1L, d))
        else Seq((0L, d), (1L, Array.empty[Point]))
      val stats = Pruner.Stats()
      val params = Pruner.Params(eps = 0.5, mu = 0.4, useGBP = useGBP)
      assertThrows[IllegalArgumentException](Pruner.search(q, data, Dist.dtw, params, noSearch, stats))
      // Only the trajectories before the empty one are counted.
      val want = if (emptyFirst) Pruner.Stats() else Pruner.Stats(examined = 1)
      assert(stats == want, s"useGBP=$useGBP emptyFirst=$emptyFirst")
    }
  }

  // A NaN bound would sort last and be searched without a word.
  test("Pruner.search rejects an empty query and a non-finite query coordinate before any bound") {
    val db = smallDb(3)
    val q = TestGen.randPoints(new Random(4), 6).toArray
    val bad = Array.empty[Point] +: (for {
      v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
      i <- Seq(0, 3)
      p <- Seq(q(i).copy(x = v), q(i).copy(y = v))
    } yield q.updated(i, p))
    for (b <- bad; fn <- TestGen.pointFns; useGBP <- Seq(true, false)) {
      val stats = Pruner.Stats()
      val params = Pruner.Params(eps = 0.5, r = 1.0, useGBP = useGBP)
      val e = intercept[IllegalArgumentException](Pruner.search(b, db, fn, params, noSearch, stats))
      assert(e.getMessage.contains(if (b.isEmpty) "must not be empty" else "must be finite"), e.getMessage)
      assert(stats == Pruner.Stats(), s"${fn.name} useGBP=$useGBP")
    }
  }

  test("pipeline prunes most of a database of far trajectories") {
    val r = new Random(9)
    val near = (0L, TestGen.randPoints(r, 10).toArray)
    val fars = Array.tabulate(20)(i =>
      ((i + 1).toLong, TestGen.randPoints(r, 10).map(p => Point(p.x + 50, p.y + 50)).toArray))
    val q = near._2.take(6)
    val stats = Pruner.Stats()
    val params = Pruner.Params(eps = 0.5, mu = 0.3)
    val got = Pruner.search(q, near +: fars, Dist.dtw, params, searchArrays(Dist.dtw), stats).get
    assert(got.trajId == 0L)
    assert(stats.gbpPruned >= 18, s"stats=$stats")
  }
}
