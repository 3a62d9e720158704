package kbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** One finished Spark task; times are epoch milliseconds as Spark reports them. */
final case class TaskRec(stage: Int, launchMs: Long, finishMs: Long, runMs: Long, gcMs: Long)

/** Collects task metrics for the traced run. Spark delivers listener events
  * asynchronously but in order, so once every started job has ended, every
  * task of those jobs has been seen.
  */
final class TaskLog extends SparkListener {
  private val tasks = new ConcurrentLinkedQueue[TaskRec]
  private val started = new AtomicInteger
  private val ended = new AtomicInteger

  override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    tasks.add(TaskRec(e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
      if (m == null) 0L else m.executorRunTime, if (m == null) 0L else m.jvmGCTime))
  }

  /** Every task seen since the last drain. */
  def drain(): Seq[TaskRec] = {
    val deadline = System.nanoTime() + 30_000_000_000L
    while (ended.get < started.get && System.nanoTime() < deadline) Thread.sleep(2)
    if (ended.get < started.get) throw new IllegalStateException("Spark listener events did not arrive")
    Iterator.continually(tasks.poll()).takeWhile(_ != null).toSeq
  }
}

object SparkTasks {

  /** Task summary of one query. The kernel stage is the stage with the most
    * task run time; balance metrics describe its tasks only.
    */
  def summarize(tasks: Seq[TaskRec], wallSeconds: Double, cores: Int): Map[String, Double] =
    if (tasks.isEmpty) Map.empty
    else {
      val kernelStage = tasks.groupBy(_.stage).maxBy(_._2.map(_.runMs).sum)._1
      val kernel = tasks.filter(_.stage == kernelStage).map(_.runMs / 1e3)
      Map(
        "spark.tasks" -> kernel.length.toDouble,
        "spark.task_median_s" -> Stats.median(kernel),
        "spark.task_max_s" -> kernel.max,
        "spark.task_skew" -> Stats.skew(kernel),
        "spark.efficiency" -> Stats.efficiency(tasks.map(_.runMs / 1e3), wallSeconds, cores),
        "spark.task_gc_s" -> tasks.map(_.gcMs).sum / 1e3
      )
    }

  def start(cores: Int, workDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("kbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
