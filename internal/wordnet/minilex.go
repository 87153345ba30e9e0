package wordnet

import "strings"

// miniEntry declares one synset of the mini lexicon: a "|"-separated list
// of synonymous lemmas, and the first lemma of the parent (hypernym)
// synset. Parents must be declared before children. The depths are crafted
// so that the terms quoted in the paper receive the same specificity values
// reported in Section 3.4 (e.g. 'osteosarcoma' 14, 'amaranthaceae' 8,
// 'abu sayyaf' 7, 'terrorism' 9, 'hypocapnia' 6).
type miniEntry struct {
	terms  string
	parent string
}

var miniEntries = []miniEntry{
	// Spine.
	{"entity", ""},                                  // 0
	{"physical entity", "entity"},                   // 1
	{"abstraction|abstract entity", "entity"},       // 1
	{"object|physical object", "physical entity"},   // 2
	{"matter", "physical entity"},                   // 2
	{"process|physical process", "physical entity"}, // 2
	{"location", "physical entity"},                 // 2
	{"whole|unit", "object"},                        // 3
	{"living thing|animate thing", "whole"},         // 4
	{"organism|being", "living thing"},              // 5
	// People.
	{"person|individual|soul", "organism"}, // 6
	{"sir thomas wyatt|wyatt", "person"},   // 7
	{"man|adult male", "person"},           // 7
	{"woman|adult female", "person"},       // 7
	{"diver|frogman", "person"},            // 7
	{"vintner|winemaker", "person"},        // 7
	{"oncologist", "person"},               // 7
	// Animals.
	{"animal|animate being|fauna", "organism"},                        // 6
	{"ectozoon|ectoparasite", "animal"},                               // 7
	{"vertebrate|craniate", "animal"},                                 // 7
	{"bird", "vertebrate"},                                            // 8
	{"passerine|passeriform bird", "bird"},                            // 9
	{"oscine|oscine bird", "passerine"},                               // 10
	{"finch", "oscine"},                                               // 11
	{"bunting", "finch"},                                              // 12
	{"old world bunting", "bunting"},                                  // 13
	{"yellow-breasted bunting|emberiza aureola", "old world bunting"}, // 14
	{"pigeon", "bird"},                                                // 9
	{"fish", "vertebrate"},                                            // 8
	{"whale", "vertebrate"},                                           // 8
	{"gray whale|grey whale", "whale"},                                // 9
	// Plants.
	{"plant|flora|plant life", "organism"},             // 6
	{"woody plant|ligneous plant", "plant"},            // 7
	{"tree", "woody plant"},                            // 8
	{"nut tree", "tree"},                               // 9
	{"chestnut|chestnut tree", "nut tree"},             // 10
	{"american chestnut|castanea dentata", "chestnut"}, // 11
	{"herb|herbaceous plant", "plant"},                 // 7
	{"amaranth", "herb"},                               // 8
	{"grape|grapevine", "woody plant"},                 // 8
	// Body and tissue.
	{"body part", "living thing"},          // 5
	{"tissue", "body part"},                // 6
	{"bone|os", "body part"},               // 6
	{"wing", "body part"},                  // 6
	{"trunk|tree trunk|bole", "body part"}, // 6
	// Taxonomy.
	{"group|grouping", "abstraction"},                                                    // 2
	{"biological group", "group"},                                                        // 3
	{"taxonomic group|taxonomic category|taxon", "biological group"},                     // 4
	{"genus", "taxonomic group"},                                                         // 5
	{"fish genus", "genus"},                                                              // 6
	{"acipenser|genus acipenser", "fish genus"},                                          // 7
	{"brama|genus brama", "fish genus"},                                                  // 7
	{"family", "taxonomic group"},                                                        // 5
	{"plant family", "family"},                                                           // 6
	{"caryophylloid dicot family", "plant family"},                                       // 7
	{"amaranthaceae|family amaranthaceae|amaranth family", "caryophylloid dicot family"}, // 8
	{"family tetragoniaceae|carpetweed family", "caryophylloid dicot family"},            // 8
	{"batidaceae|family batidaceae", "caryophylloid dicot family"},                       // 8
	{"mammal family", "family"},                                                          // 6
	{"family eschrichtiidae|eschrichtiidae", "mammal family"},                            // 7
	// States and conditions.
	{"attribute", "abstraction"},                                 // 2
	{"state", "attribute"},                                       // 3
	{"condition|status", "state"},                                // 4
	{"physiological state|physiological condition", "condition"}, // 5
	{"hypocapnia|acapnia", "physiological state"},                // 6
	{"hypercapnia|hypercarbia", "physiological state"},           // 6
	{"asphyxia", "physiological state"},                          // 6
	{"oxygen debt", "physiological state"},                       // 6
	{"hyperthermia|hyperthermy", "physiological state"},          // 6
	{"privacy|seclusion", "condition"},                           // 5 (first sense, Section 3.2)
	{"manhood", "state"},                                         // 4
	// Illness and cancers.
	{"illness|unwellness|sickness", "condition"},            // 5
	{"disease", "illness"},                                  // 6
	{"growth", "disease"},                                   // 7
	{"tumor|tumour|neoplasm", "growth"},                     // 8
	{"malignant tumor|malignant neoplasm", "tumor"},         // 9
	{"cancer|malignancy", "malignant tumor"},                // 10
	{"sarcoma", "cancer"},                                   // 11
	{"bone sarcoma", "sarcoma"},                             // 12
	{"myosarcoma", "sarcoma"},                               // 12
	{"neurosarcoma|malignant neuroma", "sarcoma"},           // 12
	{"osteogenic tumor", "bone sarcoma"},                    // 13
	{"osteosarcoma|osteogenic sarcoma", "osteogenic tumor"}, // 14
	{"rhabdomyosarcoma|rhabdosarcoma", "myosarcoma"},        // 13
	// Substances.
	{"substance", "matter"},                       // 3
	{"material|stuff", "substance"},               // 4
	{"mineral", "material"},                       // 5
	{"fool's gold|pyrite|iron pyrite", "mineral"}, // 6
	{"fluid", "substance"},                        // 4
	{"liquid", "fluid"},                           // 5
	{"water|h2o", "liquid"},                       // 6
	{"gas", "fluid"},                              // 5
	{"nitrogen|n", "gas"},                         // 6
	{"food|nutrient", "substance"},                // 4
	{"leaven|leavening", "food"},                  // 5
	{"yeast", "leaven"},                           // 6
	{"dry yeast", "yeast"},                        // 7
	{"active dry yeast", "dry yeast"},             // 8
	{"beverage|drink|potable", "food"},            // 5
	{"alcohol|alcoholic drink", "beverage"},       // 6
	{"wine|vino", "alcohol"},                      // 7
	{"moustille", "wine"},                         // 8
	// Processes.
	{"natural process|natural action", "process"}, // 3
	{"radiation", "natural process"},              // 4
	{"soaking|soak", "natural process"},           // 4
	{"flooding|inundation", "natural process"},    // 4
	{"fermentation|zymosis", "natural process"},   // 4
	{"acceleration", "natural process"},           // 4
	// Acts.
	{"act|deed|human action", "abstraction"},                  // 2
	{"activity", "act"},                                       // 3
	{"care|attention|aid", "activity"},                        // 4
	{"treatment|intervention", "care"},                        // 5
	{"therapy", "treatment"},                                  // 6
	{"radiation therapy|radiotherapy|irradiation", "therapy"}, // 7
	{"accelerated radiation therapy", "radiation therapy"},    // 8
	{"chemotherapy", "therapy"},                               // 7
	{"wrongdoing|misconduct", "activity"},                     // 4
	{"transgression|evildoing", "wrongdoing"},                 // 5
	{"crime|offense|offence", "transgression"},                // 6
	{"violent crime", "crime"},                                // 7
	{"war crime", "violent crime"},                            // 8
	{"terrorism|act of terrorism|terrorist act", "war crime"}, // 9
	{"diversion|recreation", "activity"},                      // 4
	{"sport|athletics", "diversion"},                          // 5
	{"diving|swimming event", "sport"},                        // 6
	{"scuba diving", "diving"},                                // 7
	{"concealment|concealing|hiding", "activity"},             // 4
	{"privacy|secrecy|secretiveness", "concealment"},          // 5 (second sense of 'privacy')
	{"winemaking|wine making", "activity"},                    // 4
	// Organizations.
	{"social group", "group"},                                              // 3
	{"organization|organisation", "social group"},                          // 4
	{"force|personnel", "organization"},                                    // 5
	{"terrorist organization|foreign terrorist organization", "force"},     // 6
	{"abu sayyaf|bearer of the sword", "terrorist organization"},           // 7
	{"abu hafs al-masri brigades", "terrorist organization"},               // 7
	{"aksa martyrs brigades|martyrs of al-aqsa", "terrorist organization"}, // 7
	// Measures and time.
	{"measure|quantity|amount", "abstraction"},  // 2
	{"fundamental quantity", "measure"},         // 3
	{"time", "fundamental quantity"},            // 4
	{"time interval|interval", "time"},          // 5
	{"residual nitrogen time", "time interval"}, // 6
	{"decompression time", "time interval"},     // 6
	// Locations.
	{"region", "location"},                               // 3
	{"geographical area|geographic area", "region"},      // 4
	{"urban area|populated area", "geographical area"},   // 5
	{"municipality", "urban area"},                       // 6
	{"smyrna|izmir", "municipality"},                     // 7
	{"desert", "geographical area"},                      // 5
	{"lut desert|dasht-e-lut", "desert"},                 // 6
	{"district|territory", "region"},                     // 4
	{"administrative district", "district"},              // 5
	{"state capital", "administrative district"},         // 6
	{"city|metropolis", "state capital"},                 // 7
	{"town", "city"},                                     // 8
	{"huntsville", "town"},                               // 9
	{"part of sky", "region"},                            // 4
	{"sign of the zodiac|star sign|sign", "part of sky"}, // 5
	{"zodiac", "part of sky"},                            // 5
	// Artifacts.
	{"artifact|artefact", "object"},                   // 3
	{"instrumentality|instrumentation", "artifact"},   // 4
	{"device", "instrumentality"},                     // 5
	{"mechanism", "device"},                           // 6
	{"mechanical device", "mechanism"},                // 7
	{"spring", "mechanical device"},                   // 8
	{"mainspring", "spring"},                          // 9
	{"timepiece|horologe", "device"},                  // 6
	{"watch|ticker", "timepiece"},                     // 7
	{"treadmill|threadmill", "device"},                // 6
	{"structure|construction", "artifact"},            // 4
	{"shelter", "structure"},                          // 5
	{"coop|cage", "shelter"},                          // 6
	{"pigeon loft", "coop"},                           // 7
	{"creation", "artifact"},                          // 4
	{"decoration|ornament|ornamentation", "creation"}, // 5
	{"adornment", "decoration"},                       // 6
	{"trimming|passementerie", "adornment"},           // 7
	{"knot", "trimming"},                              // 8
	{"bow", "knot"},                                   // 9
	{"love knot|lovers' knot", "bow"},                 // 10
}

// miniRelations declares the non-hypernym relations of the mini lexicon.
// Each entry links the synsets identified by the first lemma of each side.
var miniRelations = []struct {
	a, b string
	typ  RelationType
}{
	{"hypercapnia", "hypocapnia", RelAntonym},
	{"man", "woman", RelAntonym},
	{"man", "manhood", RelDerivation},
	{"terrorism", "terrorist organization", RelDerivation},
	{"diver", "diving", RelDerivation},
	{"vintner", "winemaking", RelDerivation},
	{"soaking", "water", RelDerivation},
	{"acceleration", "accelerated radiation therapy", RelDerivation},
	{"oncologist", "cancer", RelDerivation},
	{"privacy|seclusion", "concealment", RelDerivation},
	// Part-whole.
	{"wing", "bird", RelMeronym},
	{"trunk", "tree", RelMeronym},
	{"mainspring", "watch", RelMeronym},
	{"tissue", "organism", RelMeronym},
	{"bone", "vertebrate", RelMeronym},
	{"sign of the zodiac", "zodiac", RelMeronym},
	{"grape", "wine", RelMeronym},
	// Domain membership (recorded but skipped by Algorithm 1).
	{"abu sayyaf", "terrorism", RelDomainTopic},
	{"abu hafs al-masri brigades", "terrorism", RelDomainTopic},
	{"aksa martyrs brigades", "terrorism", RelDomainTopic},
	{"residual nitrogen time", "scuba diving", RelDomainTopic},
	{"decompression time", "scuba diving", RelDomainTopic},
	{"active dry yeast", "winemaking", RelDomainTopic},
	{"moustille", "winemaking", RelDomainTopic},
	{"osteosarcoma", "chemotherapy", RelDomainTopic},
}

// MiniLexicon builds the hand-curated lexicon containing the vocabulary of
// the paper's running examples (Sections 1, 3.3 and 3.4). Depths are
// arranged so the specificity values quoted in the paper hold. The
// database is returned frozen.
func MiniLexicon() *Database {
	db := NewDatabase()
	bySeed := make(map[string]SynsetID)
	for _, e := range miniEntries {
		lemmas := strings.Split(e.terms, "|")
		terms := make([]TermID, len(lemmas))
		for i, l := range lemmas {
			terms[i] = db.AddTerm(l)
		}
		id := db.AddSynset(terms, "")
		if _, dup := bySeed[e.terms]; dup {
			panic("wordnet: duplicate mini lexicon synset " + e.terms)
		}
		bySeed[e.terms] = id
		// Also index by the first lemma, unless the full form was needed
		// to disambiguate (two senses of 'privacy').
		first := lemmas[0]
		if _, ok := bySeed[first]; !ok {
			bySeed[first] = id
		}
		if e.parent != "" {
			p, ok := bySeed[e.parent]
			if !ok {
				panic("wordnet: mini lexicon parent not declared: " + e.parent)
			}
			db.AddRelation(p, id, RelHyponym)
		}
	}
	for _, r := range miniRelations {
		a, ok := bySeed[r.a]
		if !ok {
			panic("wordnet: mini lexicon relation endpoint not declared: " + r.a)
		}
		b, ok := bySeed[r.b]
		if !ok {
			panic("wordnet: mini lexicon relation endpoint not declared: " + r.b)
		}
		db.AddRelation(a, b, r.typ)
	}
	db.Freeze()
	return db
}
