//! Host facts recorded with every run: core count, CPU model and cache
//! sizes. CPU model and caches come from the `cpuid` instruction, so no
//! file outside the checkout is read.

/// One cache level as `cpuid` describes it.
#[derive(Debug, Clone)]
pub struct Cache {
    pub level: u32,
    pub kind: &'static str,
    pub bytes: u64,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    #[allow(unused_unsafe)]
    // SAFETY: `cpuid` exists on every x86-64 processor and has no
    // memory effects.
    let r = unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
    [r.eax, r.ebx, r.ecx, r.edx]
}

#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    let max_ext = cpuid(0x8000_0000, 0)[0];
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        for reg in cpuid(leaf, 0) {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string()
}

#[cfg(target_arch = "x86_64")]
pub fn caches() -> Vec<Cache> {
    let vendor = cpuid(0, 0);
    // "AuthenticAMD" keeps its cache descriptors at 0x8000_001D.
    let amd = vendor[1] == 0x6874_7541;
    let leaf = if amd { 0x8000_001D } else { 4 };
    let max = if amd { cpuid(0x8000_0000, 0)[0] } else { vendor[0] };
    if max < leaf {
        return Vec::new();
    }
    let mut out = Vec::new();
    for sub in 0..16 {
        let [eax, ebx, ecx, _] = cpuid(leaf, sub);
        let kind = match eax & 0x1f {
            0 => break,
            1 => "data",
            2 => "instruction",
            _ => "unified",
        };
        let ways = u64::from((ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(ebx & 0xfff) + 1;
        let sets = u64::from(ecx) + 1;
        out.push(Cache { level: (eax >> 5) & 0x7, kind, bytes: ways * partitions * line * sets });
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn caches() -> Vec<Cache> {
    Vec::new()
}

/// Size of the last-level cache in bytes (0 when unknown).
pub fn llc_bytes(caches: &[Cache]) -> u64 {
    caches.iter().filter(|c| c.kind != "instruction").max_by_key(|c| c.level).map_or(0, |c| c.bytes)
}

/// `L1d=48KiB L1i=32KiB L2=2048KiB L3=...` style summary.
pub fn cache_summary(caches: &[Cache]) -> String {
    if caches.is_empty() {
        return "unknown".to_string();
    }
    caches
        .iter()
        .map(|c| {
            let tag = match c.kind {
                "data" => "d",
                "instruction" => "i",
                _ => "",
            };
            format!("L{}{tag}={}KiB", c.level, c.bytes / 1024)
        })
        .collect::<Vec<_>>()
        .join(" ")
}
