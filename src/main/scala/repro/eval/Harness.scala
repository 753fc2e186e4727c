package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.baselines.rl.{QTable, RLS}
import repro.core._
import repro.network.NetTrajGen
import repro.pruning.Pruner
import repro.spark.SparkSearch

import scala.collection.immutable.ArraySeq

/** The search algorithms of Tables 2/3, each carrying the name the tables
  * print, whether the paper counts it exact, and its Table-4 complexity
  * class. `Harness.searcher` maps each to its pairwise search.
  */
sealed abstract class Algo(val name: String, val exact: Boolean, val claimed: String) extends Serializable

object Algo {
  case object POS     extends Algo("POS",      exact = false, claimed = "O(mn)")
  case object PSS     extends Algo("PSS",      exact = false, claimed = "O(mn)")
  case object RLS     extends Algo("RLS",      exact = false, claimed = "O(mn)")
  case object RLSSkip extends Algo("RLS-Skip", exact = false, claimed = "O(mn)")
  case object CMA     extends Algo("CMA",      exact = true,  claimed = "O(mn)")
  case object ExactS  extends Algo("ExactS",   exact = true,  claimed = "O(mn^2)")
  case object Spring  extends Algo("Spring",   exact = true,  claimed = "O(mn)")
  case object GB      extends Algo("GB",       exact = true,  claimed = "O(mn)")

  /** Every algorithm, in the paper's Table 2/3 order. */
  val all: Seq[Algo] = Seq(POS, PSS, RLS, RLSSkip, CMA, ExactS, Spring, GB)
}

/** Shared experiment harness for the paper's evaluation tables. Each
  * `tableN` method runs the experiment distributed over trajectories with
  * Spark and returns printable rows; `bench/` suites assert on them and
  * `jobs/` mains print them.
  */
object Harness {

  /** A pairwise search: the best subtrajectory of the data for the query. */
  type Search = (IndexedSeq[Point], IndexedSeq[Point]) => SubtrajResult

  /** One cell of Tables 2/3: `algo`'s pairwise search under `fn`. */
  final case class Cell(fn: DistFn[Point], algo: Algo, search: Search)

  /** Every cell the paper runs on `spec`, function by function, each in
    * `Algo.all` order. Each function's RLS policies are trained once, on
    * pairs disjoint from the evaluation data.
    */
  def cells(spec: DatasetSpec): Seq[Cell] = {
    val pairs = Workloads.trainingPairs(spec, nPairs = 8)
    for (fn <- Workloads.distFns(spec);
         policies = (RLS.train(pairs, fn, skip = false, seed = spec.seed),
                     RLS.train(pairs, fn, skip = true,  seed = spec.seed + 1));
         algo <- Algo.all; search <- searcher(algo, fn, policies))
      yield Cell(fn, algo, search)
  }

  /** `algo`'s pairwise search under `fn`, or `None` where the paper does not
    * run it: Spring is DTW-only and GB is FD-only (paper §3.2/§3.3). Only the
    * RLS variants read `policies`, `fn`'s trained (plain, skip) pair, once.
    */
  def searcher(algo: Algo, fn: DistFn[Point], policies: => (QTable, QTable)): Option[Search] = (algo, fn) match {
    case (Algo.POS, _)                    => Some(SplitSearch.pos(_, _, fn))
    case (Algo.PSS, _)                    => Some(SplitSearch.pss(_, _, fn))
    case (Algo.RLS, _)                    => val p = policies._1; Some(RLS.search(_, _, fn, p))
    case (Algo.RLSSkip, _)                => val p = policies._2; Some(RLS.search(_, _, fn, p))
    case (Algo.CMA, _)                    => Some(CMA.search(_, _, fn))
    case (Algo.ExactS, _)                 => Some(ExactS.search(_, _, fn))
    case (Algo.Spring, dtw @ DtwFn(_, _)) => Some(Spring.search(_, _, dtw))
    case (Algo.GB, fd @ FrechetFn(_, _))  => Some(GB.search(_, _, fd))
    case (Algo.Spring | Algo.GB, _)       => None
  }

  // ------------------------------------------------------------------
  // Table 2: effectiveness (AR / MR / RR)
  // ------------------------------------------------------------------

  final case class Table2Row(dataset: String, fn: String, algo: Algo,
                             ar: Double, mr: Double, rrPct: Double)

  /** AR/MR/RR of every applicable algorithm for each (dataset, fn), averaged
    * over all (query, data-trajectory) pairs. The all-subtrajectory distance
    * matrix (ExactS's intermediate result) is computed once per (pair, fn)
    * and shared by all algorithms' rank metrics.
    */
  def table2(spark: SparkSession, specs: Seq[DatasetSpec]): Seq[Table2Row] =
    specs.flatMap { spec =>
      val cells   = Harness.cells(spec)
      val queries = Workloads.queries(spec).map(ArraySeq.unsafeWrapArray(_))
      val byFn    = cells.zipWithIndex.groupBy(_._1.fn).toSeq
      // Keyed by cell index; each group keeps partition order for its sums.
      val evals = SparkSearch.eachPartition(Workloads.data(spark, spec)) { trajs =>
        for (t <- trajs.iterator; d = ArraySeq.unsafeWrapArray(t.points);
             q <- queries.iterator; (fn, fnCells) <- byFn.iterator;
             all = ExactS.allDistances(q, d, fn); (cell, c) <- fnCells.iterator)
          yield (c, Metrics.evaluate(cell.search(q, d), all))
      }.toSeq.groupMap(_._1)(_._2)

      for ((cell, c) <- cells.zipWithIndex) yield {
        val agg = Metrics.aggregate(evals.getOrElse(c, Nil))
        Table2Row(spec.name, cell.fn.name, cell.algo, agg.ar, agg.mr, agg.rrPct)
      }
    }

  def formatTable2(rows: Seq[Table2Row]): String =
    f"${"Dataset"}%-9s ${"Fn"}%-7s ${"Algorithm"}%-9s ${"AR"}%10s ${"MR"}%10s ${"RR"}%8s\n" + rows.map(r =>
      f"${r.dataset}%-9s ${r.fn}%-7s ${r.algo.name}%-9s ${r.ar}%10.4f ${r.mr}%10.2f ${r.rrPct}%7.2f%%\n").mkString

  // ------------------------------------------------------------------
  // Table 3: efficiency (wall seconds per dataset × fn × algorithm)
  // ------------------------------------------------------------------

  final case class Table3Row(dataset: String, fn: String, algo: Algo,
                             seconds: Double, dists: Seq[Double])

  /** Wall time to answer all queries over the full (pruned) database with
    * each algorithm, as in the paper's Table 3 setup: one
    * `SparkSearch.eachPartition` job per cell runs `Pruner.search`, Algorithm
    * 3's GBP→KPF cascade with the paper's heuristic KPF rate, per query
    * inside each partition, and the driver keeps each query's best hit. The
    * gate may cut a query's optimum, so an exact algorithm's answer here can
    * miss it. `dists` keeps each query's best distance, in `Workloads.queries`
    * order, `+inf` where the gate cut every trajectory.
    */
  def table3(spark: SparkSession, specs: Seq[DatasetSpec]): Seq[Table3Row] =
    specs.flatMap { spec =>
      val queries  = Workloads.queries(spec)
      val cells    = Harness.cells(spec)
      val data     = Workloads.data(spark, spec).cache()
      data.count() // materialize so generation cost is excluded from timings
      // mu = 0.1: keep a sizable survivor fraction, as in the paper's Table 3
      // where the search phase (not pruning) separates the algorithms.
      val params   = Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1)
      def best(qs: Array[Array[Point]], cell: Cell): Seq[Double] = {
        val locals = SparkSearch.eachPartition(data) { trajs =>
          val ds = trajs.map(t => (t.id, t.points))
          Iterator.single(qs.map(q => Pruner.search(q, ds, cell.fn, params,
            (a, b) => cell.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b)))))
        }
        qs.indices.map(i => TopK.merge(locals.flatMap(_(i)), 1).headOption.fold(Double.PositiveInfinity)(_.dist))
      }
      best(queries.take(1), cells.head) // untimed, so the first cell does not pay the run's warm-up
      val rows = cells.map { cell =>
        val t0 = System.nanoTime()
        val dists = best(queries, cell)
        Table3Row(spec.name, cell.fn.name, cell.algo, (System.nanoTime() - t0) / 1e9, dists)
      }
      data.unpersist()
      rows
    }

  def formatTable3(rows: Seq[Table3Row]): String =
    f"${"Dataset"}%-9s ${"Fn"}%-7s ${"Algorithm"}%-9s ${"Time(s)"}%12s\n" + rows.map(r =>
      f"${r.dataset}%-9s ${r.fn}%-7s ${r.algo.name}%-9s ${r.seconds}%12.2f\n").mkString

  // ------------------------------------------------------------------
  // Table 4: complexity summary — empirical growth-exponent validation
  // ------------------------------------------------------------------

  final case class Table4Row(algo: Algo, fn: String, exponent: Double, times: Seq[(Int, Double)])

  /** Empirically validate the complexity claims of Table 4: measure per-pair
    * time vs data length `n` (fixed `m`) on road-network walks (`NetTrajGen`,
    * the workloads' generator) and fit the log-log slope. O(mn)
    * algorithms should show slope ≈ 1, ExactS ≈ 2. The linear algorithms run
    * on 8× larger inputs than ExactS (same fit validity) so their per-pair
    * times rise above timer noise.
    */
  def table4(sizes: Seq[Int] = Seq(250, 500, 1000, 2000), m: Int = 40,
             reps: Int = 5): Seq[Table4Row] = {
    val spec = TrajGenSpec(lenMin = 1, lenMax = 1, width = 20, height = 20, stepKm = 0.1)
    def trajOf(n: Int, id: Long): IndexedSeq[Point] =
      ArraySeq.unsafeWrapArray(NetTrajGen.gen(id, spec.copy(lenMin = n, lenMax = n), 99).points)
    val qSmall = trajOf(m, 1000)     // ExactS: m·n²/2 cells is already slow
    val qBig   = trajOf(m * 5, 1001) // linear algos: lift m·n above timer noise

    val cases = Seq[(Algo, DistFn[Point])](Algo.CMA -> Dist.dtw, Algo.CMA -> Dist.fd,
      Algo.Spring -> Dist.dtw, Algo.GB -> Dist.fd, Algo.POS -> Dist.dtw, Algo.ExactS -> Dist.dtw)
    val runs = for ((algo, fn) <- cases; run <- searcher(algo, fn, ???); // no RLS case
                    linear = algo.claimed == Algo.CMA.claimed)
      yield (algo, fn, if (linear) qBig else qSmall, sizes.map(_ * (if (linear) 8 else 1)), run)

    // Warm every case at its largest size before any point is timed: the
    // first case's smallest sizes otherwise run before the JIT has compiled
    // its kernel, which bends the fitted exponent.
    for ((_, _, q, ns, run) <- runs) { val d = trajOf(ns.max, 2000 + ns.max); run(q, d); run(q, d) }

    runs.map { case (algo, fn, q, ns, run) =>
      // Every size is a prefix of one walk, so n is all that varies: a fresh
      // walk per size lets a data-dependent search (GB) time the walks.
      val walk = trajOf(ns.max, 2000 + ns.max)
      val ds = ns.map(walk.take)
      ds.foreach(run(q, _)) // warm-up (JIT)
      // Best of `reps` rounds that each time every size once, so a slow spell
      // (a JIT recompilation, a busy host) slows all sizes instead of one.
      val best = Array.fill(ns.length)(Double.PositiveInfinity)
      for (_ <- 0 until reps; k <- ds.indices) {
        val t0 = System.nanoTime(); run(q, ds(k))
        best(k) = math.min(best(k), (System.nanoTime() - t0) / 1e9)
      }
      val times = ns.zip(best)
      // least-squares slope of log t vs log n
      val lx = times.map(t => math.log(t._1.toDouble))
      val ly = times.map(t => math.log(t._2))
      val mx = lx.sum / lx.size; val my = ly.sum / ly.size
      val slope = lx.zip(ly).map { case (a, b) => (a - mx) * (b - my) }.sum /
                  lx.map(a => (a - mx) * (a - mx)).sum
      Table4Row(algo, fn.name, slope, times)
    }
  }

  def formatTable4(rows: Seq[Table4Row]): String =
    f"${"Algorithm"}%-9s ${"Fn"}%-5s ${"Claimed"}%-9s ${"Fitted n-exponent"}%18s   times(n->s)\n" + rows.map { r =>
      val ts = r.times.map { case (n, t) => f"$n->${t}%.4f" }.mkString(" ")
      f"${r.algo.name}%-9s ${r.fn}%-5s ${r.algo.claimed}%-9s ${r.exponent}%18.2f   $ts\n"
    }.mkString
}
