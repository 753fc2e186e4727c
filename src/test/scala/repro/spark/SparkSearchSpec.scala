package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.eval.Workloads
import repro.pruning.{GBP, KPF}

import scala.collection.immutable.ArraySeq

/** Distributed search: the Spark dataflow in its exact box-bound order must
  * equal the unpruned driver-side loop, a batch must equal its single
  * queries, and the driver merge is checked against DuckDB via the Oracle
  * (as is the GBP candidate set).
  */
class SparkSearchSpec extends AnyFunSuite with SparkSpec {

  private lazy val spec  = TestGen.tiny
  private lazy val data  = Workloads.data(spark, spec).cache()
  private lazy val local = Workloads.dataLocal(spec)
  private lazy val qs    = Workloads.queries(spec)
  private lazy val q     = qs.head
  private val fns        = Workloads.distFns(TestGen.tiny)

  private def localBest(fn: DistFn[Point]): Seq[(Long, SubtrajResult)] =
    local.toSeq.map(t => (t.id, CMA.search(ArraySeq.unsafeWrapArray(q), ArraySeq.unsafeWrapArray(t.points), fn)))

  /** Every trajectory's best hit, one row each. */
  private def allHits(fn: DistFn[Point]): Array[TopK.Hit] =
    SparkSearch.topK(data, q, fn, spec.nData).sortBy(_.trajId)

  /** `allHits` as a table for the oracle (`end` is an SQL keyword). */
  private def hitsTable(fn: DistFn[Point]): DataFrame = {
    import spark.implicits._
    allHits(fn).toSeq.toDF().select("trajId", "dist")
  }

  for (fn <- fns)
    test(s"distributed best == driver-side best [${fn.name}]") {
      val got = SparkSearch.topK(data, q, fn, 1).head
      val want = localBest(fn).map(_._2.dist).min
      TestGen.assertSameDist(got.dist, want)
    }

  test("topK over every trajectory emits one exact hit per trajectory") {
    val fn = Dist.dtw
    val hits = allHits(fn)
    val want = localBest(fn)
    assert(hits.length == want.length)
    for ((h, (id, r)) <- hits.zip(want)) {
      assert(h.trajId == id)
      TestGen.assertSameDist(h.dist, r.dist)
    }
  }

  for (k <- Seq(1, 3, 5))
    test(s"distributed topK == driver-side topK [k=$k]") {
      val fn = Dist.dtw
      val got = SparkSearch.topK(data, q, fn, k)
      val want = localBest(fn).sortBy { case (id, r) => (r.dist, id) }.take(k)
      assert(got.length == want.length)
      for ((g, (_, w)) <- got.zip(want)) TestGen.assertSameDist(g.dist, w.dist)
    }

  test("k < 1 is rejected on the driver") {
    assertThrows[IllegalArgumentException](SparkSearch.topK(data, q, Dist.dtw, 0))
    assertThrows[IllegalArgumentException](SparkSearch.topKBatch(data, Array(q), Dist.dtw, 0))
  }

  test("an empty query batch is rejected on the driver") {
    assertThrows[IllegalArgumentException](SparkSearch.topKBatch(data, Array.empty, Dist.dtw, 1))
    // So is an empty query: a task would fail it with a SparkException.
    assertThrows[IllegalArgumentException](SparkSearch.topKBatch(data, Array(q, Array.empty[Point]), Dist.dtw, 1))
    assertThrows[IllegalArgumentException](SparkSearch.topK(data, Array.empty[Point], Dist.dtw, 1))
  }

  test("ties at the k-th distance go to the lowest trajId, as on the driver") {
    import spark.implicits._
    // Twelve copies of one trajectory: every hit ties. Four partitions hold
    // ids {0,4,8}, {1,5,9}, {2,6,10}, {3,7,11}, each in ascending order.
    val copy = local.head
    val ids = Seq(0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11).map(_.toLong)
    val copies = spark.sparkContext.parallelize(ids.map(i => copy.copy(id = i)), 4).toDS()
    assert(copies.rdd.glom().collect().map(_.map(_.id).toSeq).toSeq ==
      ids.grouped(3).toSeq)
    val driver = ids.sorted.map(i => (i, ArraySeq.unsafeWrapArray(copy.points): IndexedSeq[Point]))
    for (k <- Seq(2, 5)) {
      val got = SparkSearch.topK(copies, q, Dist.dtw, k)
      val want = TopK.cma(ArraySeq.unsafeWrapArray(q), driver, k, Dist.dtw)
      assert(got.map(_.trajId).toSeq == (0L until k.toLong))
      assert(got.toSeq == want.toSeq)
    }
  }

  // topKBatch runs CMA.searchBelow against each partition's own k-th
  // best. Every hit must equal the unpruned driver loop's, bit for bit.
  private lazy val driverData = local.toSeq.map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))

  for (fn <- fns)
    test(s"default path == TopK.cma hit for hit [${fn.name} k=1,3,10,N]") {
      for (k <- Seq(1, 3, 10, spec.nData)) {
        val got = SparkSearch.topKBatch(data, qs, fn, k)
        val want = qs.map(q => TopK.cma(ArraySeq.unsafeWrapArray(q), driverData, k, fn))
        assert(got.map(_.toSeq).toSeq == want.map(_.toSeq).toSeq, s"k=$k")
      }
    }

  test("default path == TopK.cma hit for hit when distances tie across partitions") {
    import spark.implicits._
    // Each trajectory and a copy with id + 13, in the next of four
    // partitions; each partition in ascending id order.
    val all = local.toSeq ++ local.toSeq.map(t => t.copy(id = t.id + 13))
    val parts = (0 until 4).map(p => all.filter(_.id % 4 == p).sortBy(_.id))
    val tied = spark.sparkContext.parallelize(parts.flatten, 4).toDS()
    assert(tied.rdd.glom().collect().map(_.map(_.id).toSeq).toSeq == parts.map(_.map(_.id)))
    val driver = all.sortBy(_.id).map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
    for (fn <- fns; k <- Seq(1, 3, 10, all.length)) {
      val got = SparkSearch.topKBatch(tied, qs, fn, k)
      val want = qs.map(q => TopK.cma(ArraySeq.unsafeWrapArray(q), driver, k, fn))
      assert(got.map(_.toSeq).toSeq == want.map(_.toSeq).toSeq, s"${fn.name} k=$k")
      if (k == 3) assert(got.forall(_.map(_.dist).distinct.length < 3), "copies tie")
    }
  }

  // Xi'an trajectories and a copy of each, id + 101, in the next of four
  // partitions: the k-th best soon falls, and the box bound cuts.
  for (fn <- Workloads.distFns(Workloads.xian))
    test(s"default path == TopK.cma hit for hit where the box gate fires [${fn.name} k=1,3,10]") {
      import spark.implicits._
      val xian = Workloads.xian.copy(nData = 100)
      val orig = Workloads.dataLocal(xian).toSeq
      val all = orig ++ orig.map(t => t.copy(id = t.id + 101))
      val parts = (0 until 4).map(p => all.filter(_.id % 4 == p).sortBy(_.id))
      val tied = spark.sparkContext.parallelize(parts.flatten, 4).toDS()
      assert(tied.rdd.glom().collect().map(_.map(_.id).toSeq).toSeq == parts.map(_.map(_.id)))
      val driver = all.sortBy(_.id).map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
      val xqs = Workloads.queries(xian)
      var (examined, cut) = (0, 0)
      for (k <- Seq(1, 3, 10)) {
        val got = SparkSearch.topKBatch(tied, xqs, fn, k)
        val want = xqs.map(q => TopK.cma(ArraySeq.unsafeWrapArray(q), driver, k, fn))
        assert(got.map(_.toSeq).toSeq == want.map(_.toSeq).toSeq, s"k=$k")
        if (k == 3) assert(got.exists(_.map(_.dist).distinct.length < 3), "copies tie")
        // Each partition's loop again, in the tasks' ascending (box bound,
        // id) order and with their cut, counting the trajectories it
        // examines and those it cuts; merged, the replay's hits are the tasks'.
        val replay = for (q <- xqs.map(ArraySeq.unsafeWrapArray(_))) yield TopK.merge(parts.toArray.flatMap { part =>
          val byBox = part.map { t =>
            val b = new SparkSearch.Boxed(t)
            (KPF.boxBound(q, fn, b.box), t.id, b)
          }.sortWith { case ((x, i, _), (y, j, _)) => x < y || (x == y && i < j) }
          TopK.searchBelow(q, byBox.map { case (lb, id, b) => (id, (lb, b)) }, k,
            (a: IndexedSeq[Point], lbB: (Double, SparkSearch.Boxed), kth: Double) => {
              val pass = lbB._1 < kth
              examined += 1; if (!pass) cut += 1
              if (pass) CMA.searchBelow(a, lbB._2.points, fn, kth) else None
            })
        }, k)
        assert(replay.map(_.toSeq).toSeq == got.map(_.toSeq).toSeq, s"k=$k replay")
      }
      assert(cut * 2 >= examined, s"the box cut $cut of $examined")
    }

  // One trajectory and a copy under a lower id, in another of four
  // partitions; each partition in descending id order, so no task sees its
  // data in id order. Each query's nearest trajectory is copied in turn.
  test("default path == TopK.cma hit for hit with one trajectory under two ids in different partitions") {
    import spark.implicits._
    for (qi <- qs.indices) {
      val nearest = TopK.cma(ArraySeq.unsafeWrapArray(qs(qi)), driverData, 1, Dist.dtw).head.trajId
      val orig = local.find(_.id == nearest).get
      val all = local.toSeq :+ orig.copy(id = -1L)
      val part = (t: Traj) => ((if (t.id < 0) nearest + 1 else t.id) % 4).toInt
      val parts = (0 until 4).map(p => all.filter(part(_) == p).sortBy(-_.id))
      val twice = spark.sparkContext.parallelize(parts.flatten, 4).toDS()
      val driver = all.sortBy(_.id).map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
      for (fn <- fns; k <- Seq(1, 3, 10)) {
        val got = SparkSearch.topKBatch(twice, qs, fn, k)
        val want = qs.map(q => TopK.cma(ArraySeq.unsafeWrapArray(q), driver, k, fn))
        assert(got.map(_.toSeq).toSeq == want.map(_.toSeq).toSeq, s"query $qi ${fn.name} k=$k")
      }
      val top2 = SparkSearch.topK(twice, qs(qi), Dist.dtw, 2)
      assert(top2.map(_.trajId).toSeq == Seq(-1L, nearest) && top2(0).dist == top2(1).dist)
    }
  }

  test("a bad data trajectory is rejected as a Traj is made, on the driver and in the tasks") {
    import spark.implicits._
    val k = 3
    // The bad row comes after the first k of its partition, where a gate
    // that accepted its box would already cut against the k-th best.
    val good = local.take(2 * k).toSeq.map(t => (t.id, t.xs, t.ys))
    val t = local.head
    val bad = Seq((Array.empty[Double], Array.empty[Double]) -> "must not be empty") ++
      Seq((t.xs, t.ys.dropRight(1)), (t.xs, t.ys :+ 0.0)).map(_ -> "as many ys as xs") ++
      Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).flatMap { v =>
        Seq((t.xs.updated(t.length / 2, v), t.ys), (t.xs, t.ys.updated(t.length - 1, v))).map(_ -> "must be finite")
      }
    for (((xs, ys), msg) <- bad) {
      val onDriver = intercept[IllegalArgumentException](Traj(99L, xs, ys))
      assert(onDriver.getMessage.contains(msg), onDriver.getMessage)
      val ds = spark.sparkContext.parallelize(good :+ ((99L, xs, ys)), 1).toDF("id", "xs", "ys").as[Traj]
      for (fn <- fns) {
        val e = intercept[Exception](SparkSearch.topKBatch(ds, Array(q), fn, k))
        val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
        assert(causes.exists(_.isInstanceOf[IllegalArgumentException]), s"${fn.name}: $e")
        assert(e.getMessage.contains(msg), e.getMessage)
      }
    }
  }

  test("a query with a non-finite coordinate is rejected on the driver") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity);
         p <- Seq(Point(bad, q.head.y), Point(q.head.x, bad))) {
      val broken = q.updated(q.length / 2, p)
      for (e <- Seq(intercept[IllegalArgumentException](SparkSearch.topKBatch(data, Array(q, broken), Dist.dtw, 1)),
                    intercept[IllegalArgumentException](SparkSearch.topK(data, q.updated(0, p), Dist.erp(spec.erpCenter), 3))))
        assert(e.getMessage.contains("query coordinates must be finite"), e.getMessage)
    }
  }

  test("distributed topK with empty partitions == driver-side topK") {
    val spread = data.repartition(16)
    val sizes = spread.rdd.mapPartitions(it => Iterator.single(it.size)).collect()
    assert(sizes.length == 16 && sizes.contains(0) && sizes.sum == spec.nData)
    val want = TopK.cma(ArraySeq.unsafeWrapArray(q),
      local.map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point])), 3, Dist.dtw)
    assert(SparkSearch.topK(spread, q, Dist.dtw, 3).toSeq == want.toSeq)
  }

  test("k > nData returns every trajectory's hit") {
    val got = SparkSearch.topK(data, q, Dist.dtw, spec.nData + 5)
    assert(got.length == spec.nData)
    assert(got.map(_.trajId).sorted.toSeq == allHits(Dist.dtw).map(_.trajId).toSeq)
  }

  test("repeated calls on one Dataset give identical hits") {
    val runs = Seq.fill(3)(SparkSearch.topK(data, q, Dist.erp(spec.erpCenter), 5).toSeq)
    assert(runs.distinct.size == 1 && runs.head.length == 5)
  }

  // One job for the batch, one per query for the single calls: each query's
  // per-partition loop and gate are the same, so the hits are too.
  for (fn <- fns; k <- Seq(1, 3))
    test(s"topKBatch == one topK per query [${fn.name} k=$k unpruned]") {
      val batch = SparkSearch.topKBatch(data, qs, fn, k)
      assert(batch.length == qs.length)
      assert(batch.map(_.toSeq).toSeq == qs.map(q => SparkSearch.topK(data, q, fn, k).toSeq).toSeq)
    }

  // ------------------------------------------------------------------
  // DuckDB oracle checks of the driver merge and DataFrame logic
  // ------------------------------------------------------------------

  test("oracle: top-1 arg-min aggregation over per-trajectory hits") {
    val hits = hitsTable(Dist.dtw)
    val sparkMin = hits.agg(min(col("dist")).as("best_dist"))
    Oracle.assertEquivalent(sparkMin,
      "SELECT min(CAST(dist AS DOUBLE)) AS best_dist FROM hits",
      "hits" -> hits)
  }

  test("oracle: top-K driver merge matches SQL ranking") {
    import spark.implicits._
    val hits = hitsTable(Dist.dtw)
    val k = 3
    // Compare the *distance multiset* of the top-K (ties could reorder ids).
    val sparkTop = SparkSearch.topK(data, q, Dist.dtw, k).toSeq.toDF()
      .agg(sum(col("dist")).as("sum_dist"), count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkTop,
      s"""SELECT sum(dist) AS sum_dist, count(*) AS cnt FROM (
         |  SELECT CAST(dist AS DOUBLE) AS dist FROM hits
         |  ORDER BY dist ASC, CAST(trajId AS BIGINT) ASC LIMIT $k)""".stripMargin,
      "hits" -> hits)
  }

  test("oracle: GBP candidate join/count pipeline") {
    import spark.implicits._
    val eps = spec.gen.stepKm * 8; val mu = 0.3
    // Eq. 27 as SQL: the dilated cells B(·) of each trajectory joined with
    // the query points' cells, counted per trajectory.
    val dataCells = data.flatMap { t =>
      t.points.iterator.flatMap(p => GBP.dilate(GBP.cell(p, eps))).map(c => (t.id, c)).toSeq
    }.toDF("trajId", "cell").distinct()
    val qCells = q.zipWithIndex.map { case (p, i) => (i, GBP.cell(p, eps)) }
      .toSeq.toDF("qIdx", "cell")
    val cells = GBP.queryCells(q, eps)
    val kept = local.filter(t => GBP.passes(cells, t.points, eps, mu))
      .map(t => (t.id, GBP.closeCount(cells, t.points, eps).toLong))
    assert(kept.nonEmpty && kept.length < local.length)
    val threshold = mu * q.length
    Oracle.assertEquivalent(kept.toSeq.toDF("trajId", "close"),
      s"""SELECT CAST(trajId AS BIGINT) AS trajId, count(DISTINCT qIdx) AS close
         |FROM dataCells JOIN qCells USING (cell)
         |GROUP BY trajId
         |HAVING count(DISTINCT qIdx) >= $threshold""".stripMargin,
      "dataCells" -> dataCells, "qCells" -> qCells)
  }

  test("oracle: Table-2 style avg aggregation of metric records") {
    import spark.implicits._
    val recs = Seq(
      ("DTW", "CMA", 1.0), ("DTW", "CMA", 1.0),
      ("DTW", "POS", 1.5), ("DTW", "POS", 2.5),
      ("FD", "GB", 1.0)).toDF("fn", "algo", "ar")
    val sparkAgg = recs.groupBy(col("fn"), col("algo")).agg(avg(col("ar")).as("avg_ar"))
    Oracle.assertEquivalent(sparkAgg,
      "SELECT fn, algo, avg(CAST(ar AS DOUBLE)) AS avg_ar FROM recs GROUP BY fn, algo",
      "recs" -> recs)
  }
}
