package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]`.
  *
  * Set-up runs `SetupRounds` times and `setup_s` is their median. The timed
  * phase is a closed loop with one client; it lasts `--seconds` and at least
  * `MinQueries` queries, so `query_p90_ms` has ten samples beyond it, and
  * ends on a whole number of cycles through the workload's pairs, so every
  * run answers the same multiset of queries whatever the speed. With
  * `--trace 1` the run measures an untraced phase and then a traced phase of
  * `--seconds / 2` each and reports per-layer metrics. Every answer is
  * checked against an unpruned reference computed after the timed phases.
  * The last line of standard output is the result object.
  */
object Main {

  val SetupRounds = 3
  val MinQueries = 100
  val MaxPhaseSeconds = 60.0

  val EndToEnd: Seq[(String, String)] = Seq(
    "query_p50_ms" -> "ms", "query_p90_ms" -> "ms", "queries_per_s" -> "1/s",
    "recall" -> "ratio", "setup_s" -> "s", "retained_heap_mb" -> "MB")

  val PerLayer: Seq[(String, String)] = Seq(
    "core.traj_points_us" -> "us", "core.cma_calls" -> "calls/query",
    "core.cma_cells" -> "cells/query", "core.cma_ms" -> "ms/query") ++
    Seq("DTW", "EDR", "ERP", "FD", "NetERP", "NetEDR", "SURS").map(f => s"core.cma_ns_per_cell.$f" -> "ns") ++
    Seq(
      "pruning.pipeline_ms" -> "ms/query", "pruning.self_ms" -> "ms/query",
      "pruning.gbp_us_per_traj" -> "us", "pruning.kpf_us_per_call" -> "us",
      "pruning.gbp_pass_ratio" -> "ratio", "pruning.kpf_prune_ratio" -> "ratio",
      "pruning.searched_ratio" -> "ratio",
      "spark.fixed_ms" -> "ms", "spark.jobs_per_query" -> "jobs/query",
      "spark.tasks_per_query" -> "tasks/query", "spark.task_busy_ms" -> "ms/query",
      "spark.sched_wait_ms" -> "ms/query", "spark.slot_utilization" -> "ratio",
      "network.cost_evals" -> "evals/query", "network.dist_ns" -> "ns",
      "network.dijkstra_ms" -> "ms",
      "jvm.alloc_mb_per_query" -> "MB/query", "jvm.gc_ms_per_query" -> "ms/query",
      "trace.overhead_ms" -> "ms")

  /** One timed phase: pair index, latency and answer of each query (`null`
    * when the query threw).
    */
  final class Phase(val ks: Array[Int], val latMs: Array[Double],
                    val answers: Array[Array[Double]], val wallS: Double) {
    def count: Int = ks.length
    def p50: Double = Stats.quantile(latMs, 0.5)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val name = opts.getOrElse("workload", "")
    if (!Workload.names.contains(name) || !Set("0", "1").contains(opts.getOrElse("trace", "0"))) {
      System.err.println(s"usage: --workload ${Workload.names.mkString("|")} --seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val slots = Runtime.getRuntime.availableProcessors
    val wl = Workload(name, seed, slots)

    val setupS = Array.fill(SetupRounds) {
      val t0 = System.nanoTime(); wl.setup(); (System.nanoTime() - t0) / 1e9
    }
    val heapMb = retainedHeapMb()

    val (phases, metrics) =
      if (!traced) {
        val p = measure(wl, seconds, Trace.Off)
        (Seq(p), Map(
          "query_p50_ms" -> p.p50,
          "query_p90_ms" -> Stats.quantile(p.latMs, 0.9),
          "queries_per_s" -> p.count / p.wallS,
          "setup_s" -> Stats.median(setupS),
          "retained_heap_mb" -> heapMb))
      } else {
        val jvm0 = JvmCounters.now()
        val plain = measure(wl, seconds / 2, Trace.Off)
        val jvm = JvmCounters.now().minus(jvm0)
        wl match { case s: SparkTopK => s.listen(); case _ => }
        val tr = new Trace
        val tracedPhase = measure(wl, seconds / 2, tr)
        val layers = wl.layers(tr, tracedPhase.count) ++ Map(
          "jvm.alloc_mb_per_query" -> jvm.allocBytes / 1048576.0 / plain.count,
          "jvm.gc_ms_per_query" -> jvm.gcMs.toDouble / plain.count,
          "trace.overhead_ms" -> (tracedPhase.p50 - plain.p50))
        opts.get("spans").foreach(f => tr.write(new File(f)))
        (Seq(plain, tracedPhase), PerLayer.map { case (m, _) => m -> layers.getOrElse(m, 0.0) }.toMap)
      }

    val check = Check(wl, phases, slots)
    val all = if (traced) metrics else metrics + ("recall" -> check.recall)
    val correct = check.failed == 0 && (!wl.exact || check.recall == 1.0)
    val units = (if (traced) PerLayer else EndToEnd).toMap

    println(Json.obj(Seq("info" -> Json.obj(Seq(
      "workload" -> Json.str(name), "seed" -> seed.toString, "trace" -> (if (traced) "1" else "0"),
      "queries_measured" -> phases.head.count.toString,
      "queries_traced" -> (if (traced) phases.last.count.toString else "0"),
      "counted_queries" -> Workload.Counted.toString,
      "setup_rounds_s" -> setupS.map(Json.num).mkString("[", ",", "]"),
      "inputs_digest" -> Json.str(wl.inputsDigest),
      "git_sha" -> Json.str(sys.props.getOrElse("perfbench.gitSha", "unknown")),
      "source_sha" -> Json.str(sys.props.getOrElse("perfbench.sourceSha", "unknown")),
      "nproc" -> slots.toString,
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "jvm_flags" -> Json.str(ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(a => a.startsWith("-X") || a.startsWith("-XX")).mkString(" ")),
      "recall" -> Json.num(check.recall))))))
    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> check.attempted.toString,
      "failed" -> check.failed.toString,
      "metrics" -> Json.obj(all.toSeq.sortBy(_._1).map { case (m, v) =>
        m -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(units(m))))
      }))))
    System.out.flush()
    wl.close()
    sys.exit(if (correct) 0 else 1)
  }

  /** Closed loop, one client: the next query starts when the last returns.
    * Stops only between cycles through all pairs.
    */
  def measure(wl: Workload, seconds: Double, tr: Trace): Phase = {
    val ks = Array.newBuilder[Int]; val lat = Array.newBuilder[Double]
    val ans = Array.newBuilder[Array[Double]]
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var i = 0
    while (elapsed < seconds || i < MinQueries || i % wl.pairs != 0) {
      require(elapsed < MaxPhaseSeconds, s"phase exceeded ${MaxPhaseSeconds}s after $i queries")
      val k = i % wl.pairs
      val t0 = System.nanoTime()
      val a = try tr.query(i)(wl.run(k, tr)) catch { case NonFatal(e) => e.printStackTrace(); null }
      lat += (System.nanoTime() - t0) / 1e6
      ks += k; ans += a
      i += 1
    }
    new Phase(ks.result(), lat.result(), ans.result(), elapsed)
  }

  /** Heap the last full collection left in use. Read from the pools'
    * after-collection usage, which excludes whatever any thread allocated
    * since (a fresh allocation buffer alone can add megabytes).
    */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == java.lang.management.MemoryType.HEAP && p.getCollectionUsage != null)
      .map(_.getCollectionUsage.getUsed).sum / 1048576.0
  }

  /** Answers of every timed query against the references of the pairs they
    * ran; references are computed here, after the timed phases, on `threads`
    * threads.
    */
  final case class Check(attempted: Int, failed: Int, recall: Double)

  object Check {
    def apply(wl: Workload, phases: Seq[Phase], threads: Int): Check = {
      val ks = phases.flatMap(_.ks).distinct
      val pool = Executors.newFixedThreadPool(threads)
      val refs = try {
        val fs = ks.map(k => k -> pool.submit(new Callable[Array[Double]] { def call() = wl.reference(k) }))
        fs.map { case (k, f) => k -> f.get() }.toMap
      } finally pool.shutdown()
      val results = phases.flatMap(p => p.ks.zip(p.answers)).map { case (k, a) =>
        val ref = refs(k)
        val matches = a != null && a.length == ref.length && a.indices.forall(i => close(a(i), ref(i)))
        // A heuristic may miss the optimum but never beat it.
        val bad = a == null || (if (wl.exact) !matches else a.nonEmpty && ref.nonEmpty && a(0) < ref(0) && !close(a(0), ref(0)))
        (matches, bad)
      }
      Check(results.size, results.count(_._2), results.count(_._1).toDouble / results.size)
    }

    private def close(a: Double, b: Double): Boolean = a == b || math.abs(a - b) <= 1e-9 * math.abs(b)
  }
}

final case class JvmCounters(allocBytes: Long, gcMs: Long) {
  def minus(o: JvmCounters): JvmCounters = JvmCounters(allocBytes - o.allocBytes, gcMs - o.gcMs)
}

object JvmCounters {
  /** Bytes allocated by all live threads and total collector time so far. */
  def now(): JvmCounters = {
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum
    JvmCounters(alloc, gc)
  }
}

/** Just enough JSON for the result lines: values arrive already encoded. */
object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
  } + "\""
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric is not a finite number: $d")
    d.toString
  }
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
