package perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.scheduler._
import org.apache.spark.sql.{Dataset, SparkSession}
import perfbench.Workload._
import repro.core._
import repro.eval.Workloads
import repro.spark.SparkSearch

import scala.jdk.CollectionConverters._

/** Distributed top-10 over a cached Xi'an dataset: one `SparkSearch.topK`
  * job per query, unpruned CMA inside the tasks. The only workload that
  * starts threads beyond the single client: `slots` local task slots, one
  * fewer than the cores (see `Workload.apply`).
  */
final class SparkTopK(seed: Long, slots: Int) extends Workload {

  val exact = true
  private val K = 10
  private val spec = Workloads.xian.copy(nData = 1000, nQueries = 52, seed = seed)
  private val fns = Workloads.distFns(spec)
  private var spark: SparkSession = _
  private var data: Dataset[Traj] = _
  private var queries: Array[Array[Point]] = Array.empty

  def pairs: Int = queries.length

  private def pair(k: Int): (Array[Point], DistFn[Point]) = (queries(k), fns(k % fns.length))

  def setup(): Unit = {
    close()
    spark = SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", slots.toString)
      .getOrCreate()
    data = Workloads.data(spark, spec).cache()
    data.count()
    queries = Workloads.queries(spec)
    // Spark's per-job driver path (planning, scheduling, result collection)
    // runs once per query and reaches compiled code far more slowly than the
    // search kernels, so this workload warms up four times as long.
    (0 until 4 * WarmupPairs).foreach(run(_, Trace.Off))
  }

  def run(k: Int, tr: Trace): Array[Double] = {
    val (q, fn) = pair(k)
    val sc = spark.sparkContext
    if (tr.on) sc.setJobGroup(s"q${tr.currentQuery}", "perfbench query", interruptOnCancel = false)
    try tr.span("spark.topK")(SparkSearch.topK(data, q, fn, K)).map(_.dist)
    finally if (tr.on) sc.clearJobGroup()
  }

  private lazy val local: Array[(Long, IndexedSeq[Point])] =
    Workloads.dataLocal(spec).map(t => (t.id, wrap(t.points)))

  def reference(k: Int): Array[Double] = {
    val (q, fn) = pair(k)
    TopK.cma(wrap(q), local, K, fn).map(_.dist)
  }

  private val listener = new JobListener

  /** Registers the job listener for a traced phase. */
  def listen(): Unit = spark.sparkContext.addSparkListener(listener)

  def layers(tr: Trace, queries: Int): Map[String, Double] = {
    listener.await(queries)
    spark.sparkContext.removeSparkListener(listener)
    val jobs = listener.jobs.values.asScala.toSeq
    val counted = jobs.filter(_.qid < Counted)
    val walls = tr.named("spark.topK").map(s => s.qid -> s.durNs / 1e6).toMap
    val busyMs = jobs.map(_.busyMs).sum
    val longestMs = jobs.groupBy(_.qid).map { case (_, js) => js.map(_.longestMs).sum }.sum
    val wallMs = walls.values.sum
    Map(
      "spark.jobs_per_query"   -> counted.size.toDouble / Counted,
      "spark.tasks_per_query"  -> counted.map(_.tasks).sum.toDouble / Counted,
      "spark.task_busy_ms"     -> busyMs / queries,
      "spark.sched_wait_ms"    -> (wallMs - longestMs) / queries,
      "spark.slot_utilization" -> busyMs / (wallMs * slots),
      "spark.fixed_ms"         -> fixedMs(),
    ) ++ cmaReplay() ++ pointsReplay()
  }

  /** `topK` over an 8-trajectory dataset: the per-job cost left when there
    * is almost no search work.
    */
  private def fixedMs(): Double = {
    val tiny = Workloads.data(spark, spec.copy(nData = 8)).cache()
    tiny.count()
    val (q, fn) = pair(0)
    (0 until 3).foreach(_ => SparkSearch.topK(tiny, q, fn, K))
    val ms = replay(15, 1)(SparkSearch.topK(tiny, q, fn, K)) / 1e6
    tiny.unpersist()
    ms
  }

  /** CMA runs inside the tasks, out of the benchmark's reach, so its layer
    * numbers come from the same top-10 replayed on the driver for one query
    * of each distance function.
    */
  private def cmaReplay(): Map[String, Double] = {
    val rt = new Trace
    val sample = 0 until fns.length
    sample.foreach { k =>
      val (q, fn) = pair(k)
      rt.query(k) {
        TopK.search(wrap(q), local, K, (a: IndexedSeq[Point], b: IndexedSeq[Point]) =>
          rt.span("core.cma", a.length.toLong * b.length, fn.name)(CMA.search(a, b, fn)))
      }
    }
    val (ns, _) = rt.total("core.cma")
    Map(
      "core.cma_calls" -> rt.countBelow("core.cma", sample.size).toDouble / sample.size,
      "core.cma_cells" -> rt.workBelow("core.cma", sample.size).toDouble / sample.size,
      "core.cma_ms"    -> ns / 1e6 / sample.size,
    ) ++ fns.map { fn =>
      val (fnNs, cells) = rt.total("core.cma", fn.name)
      s"core.cma_ns_per_cell.${fn.name}" -> fnNs.toDouble / cells
    }
  }

  /** `Traj.points`, which every task calls once per trajectory and query. */
  private def pointsReplay(): Map[String, Double] = {
    val trajs = Workloads.dataLocal(spec)
    Map("core.traj_points_us" -> replay(5, trajs.length)(trajs.foreach(_.points)) / 1e3)
  }

  def inputsDigest: String =
    digest(queries.iterator.flatMap(q => Iterator(q.map(_.x), q.map(_.y))) ++
           local.iterator.flatMap { case (_, d) => Iterator(d.map(_.x).toArray, d.map(_.y).toArray) })

  override def close(): Unit = if (spark != null) { spark.stop(); spark = null }
}

/** Job, task and timing counts per query, keyed by the job group the traced
  * phase sets (`q<id>`).
  */
final class JobListener extends SparkListener {
  final class Job(val qid: Int) {
    @volatile var tasks = 0
    @volatile var busyMs = 0.0
    @volatile var longestMs = 0.0
    @volatile var done = false
  }
  val jobs = new ConcurrentHashMap[Int, Job]()
  private val stageJob = new ConcurrentHashMap[Int, Job]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.filter(_.startsWith("q")).foreach { g =>
      val job = new Job(g.drop(1).toInt)
      jobs.put(e.jobId, job)
      e.stageIds.foreach(s => stageJob.put(s, job))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageJob.get(e.stageId)).foreach { job =>
      val ms = e.taskInfo.duration.toDouble
      job.synchronized {
        job.tasks += 1; job.busyMs += ms; job.longestMs = math.max(job.longestMs, ms)
      }
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobs.get(e.jobId)).foreach(_.done = true)

  /** Waits until the listener has seen every job of the first `queries`
    * traced queries end (events arrive asynchronously).
    */
  def await(queries: Int): Unit = {
    val deadline = System.nanoTime() + 30_000_000_000L
    def settled = {
      val js = jobs.values.asScala
      js.forall(_.done) && js.map(_.qid).toSet.size >= queries
    }
    while (!settled && System.nanoTime() < deadline) Thread.sleep(20)
    require(settled, "Spark listener events did not arrive")
  }
}
